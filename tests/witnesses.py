"""Witness functions for the acceptance criteria, used only by the tests.

They state properties of the solver's building blocks in executable form:
the matrix exponential and variance form behind the multiplicative-weights
analysis, the demand-norm and capacity-duality bounds and the flow
decomposition identity of the flow layer, the subset lift and projection
between a hypergraph and its reduced digraph, a cut evaluator that
scans the edges' frozensets with exact ``Fraction`` sums, independent of
the incidence arrays the package answers cut questions from, the
singleton/closure baseline as one cut evaluation per candidate, and the
loops the flow layer replaced: dense F, D and sum f_p T_p accumulated one
``add_mat_A``/``add_mat_T`` call per entry, the lift that visits every
hyperedge, and the oracle's Case 2 scan as it ran one direction at a time:
one draw, one split and one exact cut evaluation per direction.
"""

from __future__ import annotations

from fractions import Fraction
import math
from typing import Iterable, Mapping

import numpy as np

from hyperspars import oracle
from hyperspars.flownet import (
    CONSERVATION_TOL,
    FlowAssignment,
    FlowDecomposition,
    FlowInstance,
    MaxFlowResult,
    demand_matrix,
    flow_matrix,
    triangle_matrix_sum,
)
from hyperspars.hypergraph import (
    Cut,
    DirectedHypergraph,
    ReducedDigraph,
    evaluate_cut,
    out_closure,
)
from hyperspars.oracle import (
    DualCertificate,
    OracleConfig,
    OracleFailure,
    OracleInvariantError,
    OracleOutcome,
    log2_weight,
)
from hyperspars.sdpcore import GramState, TriangleId, add_mat_A, add_mat_T

DEFAULT_DEMAND_NORM_CONST = 8.0


def mat_exp(m: np.ndarray) -> np.ndarray:
    """exp(M) for symmetric M via eigendecomposition; result symmetric PSD."""
    m = np.asarray(m, dtype=float)
    lam, u = np.linalg.eigh((m + m.T) / 2.0)
    out = (u * np.exp(lam)) @ u.T
    return (out + out.T) / 2.0


def variance_form(u, delta) -> float:
    """Variance of the values u under the probability masses delta.

    Preconditions: sum(u) = 0, sum(u^2) = 1, delta a positive probability
    vector.  The value always lies in [min(delta), max(delta)].
    """
    u = np.asarray(u, dtype=float)
    d = np.asarray(delta, dtype=float)
    if u.shape != d.shape:
        raise ValueError("u and delta must have equal length")
    if abs(u.sum()) > 1e-9:
        raise ValueError("u must sum to zero")
    if abs(u @ u - 1.0) > 1e-9:
        raise ValueError("u must have unit squared norm")
    if np.any(d <= 0):
        raise ValueError("delta entries must be positive")
    if abs(d.sum() - 1.0) > 1e-9:
        raise ValueError("delta must sum to one")
    mean = float(d @ u)
    return float(d @ (u * u)) - mean * mean


def demand_norm_bound(
    demand: Mapping[tuple[int, int], float],
    norm_const: float = DEFAULT_DEMAND_NORM_CONST,
) -> float:
    """Upper bound norm_const * sum(d_ij) on the demand matrix spectral norm."""
    return norm_const * sum(demand.values())


def capacity_duality_check(
    fa: FlowAssignment,
    state: GramState,
    h: DirectedHypergraph,
    tol: float = 1e-9,
) -> bool:
    """Weak duality predicate: F . X <= sum_e c_e d_e with c_e = w_e / 2.

    Holds for every capacity-respecting flow.
    """
    f_dot_x = sum(f * state.ddist(i, j) for _, i, j, f in fa)
    bound = 0.0
    for e in h.edges:
        d_e = max(
            [0.0]
            + [state.ddist(i, j) for i in sorted(e.tail) for j in sorted(e.head)]
        )
        bound += float(e.weight) / 2.0 * d_e
    scale = max(abs(f_dot_x), abs(bound), 1.0)
    return f_dot_x <= bound + tol * scale


def decomposition_matrix_identity_gap(
    fa: FlowAssignment,
    dec: FlowDecomposition,
    n: int,
) -> float:
    """Max-abs gap of F(cycle-free) - (sum f_p T_p + D); should be ~0."""
    lhs = flow_matrix(fa, n) - demand_matrix(dec.dropped_pairs, n)
    rhs = triangle_matrix_sum(dec.triangle_weights, n) + demand_matrix(dec.demand, n)
    return float(np.max(np.abs(lhs - rhs)))


def transform_subset(rd: ReducedDigraph, subset: Iterable[int]) -> frozenset[int]:
    """Canonical lift of an original subset into the reduced digraph."""
    s = frozenset(subset)
    h = rd.base
    lifted = set(s)
    for k, e in enumerate(h.edges):
        if not e.tail.isdisjoint(s):
            lifted.add(rd.tail_node(k))
        if e.head <= s:
            lifted.add(rd.head_node(k))
    return frozenset(lifted)


def digraph_cut_weight(rd: ReducedDigraph, subset: Iterable[int]) -> Fraction:
    """Weight of arcs leaving ``subset`` in the reduced digraph."""
    s = set(subset)
    return sum((w for u, v, w in rd.arcs if u in s and v not in s), Fraction(0))


def restrict_subset(rd: ReducedDigraph, subset: Iterable[int]) -> tuple[frozenset[int], bool]:
    """Project a digraph subset back to original vertices.

    The flag certifies cut-weight preservation: the digraph cut stayed
    below the gadget weight M and the projected subset's out-going cut
    equals it.  (Below M alone does not suffice: a tail gadget node without
    any of its tail vertices keeps the edge arc in the digraph cut while
    contributing nothing to the restricted cut.)
    """
    s = set(subset)
    restricted = frozenset(v for v in s if v < rd.base.n)
    dig = digraph_cut_weight(rd, s)
    if dig >= rd.big_weight:
        return restricted, False
    crossing = [k for k in scan_out_cut(rd.base, restricted)]
    hyp = sum((rd.base.edges[k].weight for k in crossing), Fraction(0))
    return restricted, hyp == dig


def scan_out_cut(h: DirectedHypergraph, subset) -> list[int]:
    """Indices of edges in the out-going cut of ``subset``."""
    return [
        k
        for k, e in enumerate(h.edges)
        if not e.tail.isdisjoint(subset) and not e.head.issubset(subset)
    ]


def scan_out_weight(h: DirectedHypergraph, subset) -> Fraction:
    return sum((h.edges[k].weight for k in scan_out_cut(h, subset)), Fraction(0))


def scan_weighted_degrees(h: DirectedHypergraph) -> tuple[Fraction, ...]:
    deg = [Fraction(0)] * h.n
    for e in h.edges:
        for v in e.tail | e.head:
            deg[v] += e.weight
    return tuple(deg)


def scan_sparsity(h: DirectedHypergraph, subset) -> Fraction:
    s = frozenset(subset)
    ws = h.weight_of(s)
    return scan_out_weight(h, s) / (ws * (h.total_weight - ws))


def scan_expansion(h: DirectedHypergraph, subset) -> tuple[Fraction, Fraction, Fraction]:
    """(phi_plus, phi_minus, phi); ValueError where ``subset`` has zero
    weighted degree."""
    s = frozenset(subset)
    deg = scan_weighted_degrees(h)
    ws = sum((deg[i] for i in s), Fraction(0))
    if ws == 0:
        raise ValueError("undefined expansion: subset has zero weighted degree")
    phi_plus = scan_out_weight(h, s) / ws
    phi_minus = scan_out_weight(h, frozenset(range(h.n)) - s) / ws
    return phi_plus, phi_minus, min(phi_plus, phi_minus)


def scan_out_closure(h: DirectedHypergraph, seeds: Iterable[int]) -> frozenset[int]:
    """Smallest superset of ``seeds`` with zero-weight out-going cut."""
    s = set(seeds)
    changed = True
    while changed:
        changed = False
        for e in h.edges:
            if e.weight > 0 and not e.tail.isdisjoint(s) and not e.head <= s:
                s |= e.head
                changed = True
    return frozenset(s)


def scan_singleton_baseline(h: DirectedHypergraph) -> Cut:
    """Best of the singleton cuts and zero-cut closures, evaluating each of
    the 3n candidates in turn; the first of least sparsity wins."""
    best: Cut | None = None
    for v in range(h.n):
        candidates = [{v}, set(range(h.n)) - {v}, out_closure(h, {v})]
        for subset in candidates:
            if not subset or len(subset) == h.n:
                continue
            cut = evaluate_cut(h, subset)
            if best is None or cut.sparsity < best.sparsity:
                best = cut
    assert best is not None
    return best


def loop_flow_matrix(fa: FlowAssignment, n: int) -> np.ndarray:
    """F = sum of f * mat_A(i, j), one in-place add_mat_A per entry."""
    m = np.zeros((n, n))
    for _, i, j, f in fa:
        add_mat_A(m, i, j, f)
    return m


def loop_demand_matrix(demand: Mapping[tuple[int, int], float], n: int) -> np.ndarray:
    """D = sum of d_ij * mat_A(i, j), one in-place add_mat_A per pair."""
    m = np.zeros((n, n))
    for (i, j), f in demand.items():
        add_mat_A(m, i, j, f)
    return m


def loop_triangle_matrix_sum(triangles: Mapping[TriangleId, float], n: int) -> np.ndarray:
    """sum of f_p * mat_T(p), one in-place add_mat_T per triangle."""
    m = np.zeros((n, n))
    for tri, f in triangles.items():
        add_mat_T(m, tri, f)
    return m


def loop_lift_flow(result: MaxFlowResult, instance: FlowInstance) -> FlowAssignment:
    """The hypergraph flow of a digraph flow, checking gadget conservation
    at every hyperedge, flow-carrying or not."""
    rd = instance.rd
    arc_flow = result.arc_flow.tolist()
    values: list[tuple[int, int, int, float]] = []
    inc = rd.base.incidence
    for e_idx, (tails, heads) in enumerate(zip(inc.tail.lists, inc.head.lists)):
        k = rd.edge_arc_index[e_idx]
        mid = arc_flow[k]
        in_flows = arc_flow[k + 1 : k + 1 + len(tails)]
        out_flows = arc_flow[k + 1 + len(tails) : k + 1 + len(tails) + len(heads)]
        tol = CONSERVATION_TOL * max(1.0, abs(mid))
        if abs(sum(in_flows) - mid) > tol or abs(sum(out_flows) - mid) > tol:
            raise ArithmeticError(f"gadget conservation violated at edge {e_idx}")
        if mid <= tol:
            continue
        for i, fi in zip(tails, in_flows):
            if fi <= 0.0:
                continue
            for j, fj in zip(heads, out_flows):
                if fj <= 0.0:
                    continue
                values.append((e_idx, i, j, fi * fj / mid))
    return FlowAssignment(tuple(values))


def random_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    """One random unit direction, redrawn while too short to normalize."""
    while True:
        u = rng.standard_normal(dim)
        norm = float(np.linalg.norm(u))
        if norm > 1e-12:
            return u / norm


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    half = cum[-1] / 2.0
    idx = int(np.searchsorted(cum, half))
    return float(values[order[min(idx, len(order) - 1)]])


def direction_split_once(
    vhat: np.ndarray,
    omega: np.ndarray,
    members: np.ndarray,
    dist0: np.ndarray,
    u: np.ndarray,
    cfg: OracleConfig,
    total: float,
) -> tuple[np.ndarray, list[int], list[int]] | None:
    """One direction attempt: sweep for stretched L0/R0, then median split.

    Returns (direction, L, R) or None.  Every (i, j) in L x R satisfies the
    projection stretch along the returned direction and
    d(i, j) >= |v_i - v_j|^2.  ``dist0`` holds the norms |vhat_i - vhat_0|.
    """
    proj = vhat[members] @ u
    order = np.argsort(proj, kind="stable")
    sorted_members = members[order]
    sorted_proj = proj[order]
    w_sorted = omega[sorted_members]
    target = cfg.c_frac * total
    stretch = cfg.sigma / math.sqrt(total)

    cum = np.cumsum(w_sorted)
    k_lo = int(np.searchsorted(cum, target))
    if k_lo >= len(sorted_members):
        return None
    cum_rev = np.cumsum(w_sorted[::-1])
    k_hi = int(np.searchsorted(cum_rev, target))
    if k_hi >= len(sorted_members):
        return None
    l0 = sorted_members[: k_lo + 1]
    r0 = sorted_members[len(sorted_members) - k_hi - 1 :]
    if sorted_proj[len(sorted_members) - k_hi - 1] - sorted_proj[k_lo] < stretch:
        return None

    r_med = weighted_median(dist0[l0], omega[l0])
    l0_minus = l0[dist0[l0] <= r_med]
    l0_plus = l0[dist0[l0] >= r_med]
    r0_minus = r0[dist0[r0] <= r_med]
    r0_plus = r0[dist0[r0] >= r_med]
    w_r0_plus = omega[r0_plus].sum()
    w_r0_minus = omega[r0_minus].sum()
    if w_r0_plus >= w_r0_minus and len(r0_plus) and len(l0_minus):
        left, right, u_eff = l0_minus, r0_plus, u
    elif len(r0_minus) and len(l0_plus):
        left, right, u_eff = r0_minus, l0_plus, -u
    else:
        return None
    return u_eff, [int(v) for v in left], [int(v) for v in right]


def single_cut_outcome(call, res: MaxFlowResult, case: str, extra: dict) -> OracleOutcome:
    """The cut a short max-flow leaves, evaluated and checked on its own."""
    h = call.h
    members = frozenset(np.flatnonzero(res.reachable[: h.n]).tolist())
    inside = float(sum(h.vertex_weights[v] for v in members))
    extra = dict(extra, side_weights=(inside, h.total_weight - inside))
    if not members or len(members) == h.n:
        raise OracleInvariantError(
            f"case {case} produced an improper cut ({len(members)} of {h.n})",
            dict(extra, case=case),
        )
    cut = evaluate_cut(h, members)
    bound = call.cfg.ratio_bound(call.alpha, h, case)
    diag = dict(extra, case=case, ratio_bound=bound)
    if float(cut.sparsity) > bound * (1 + 1e-9):
        raise OracleInvariantError(
            f"case {case} cut sparsity {float(cut.sparsity):.6g} exceeds "
            f"ratio bound {bound:.6g}",
            dict(diag, sparsity=float(cut.sparsity)),
        )
    return OracleOutcome("cut", cut=cut, diagnostics=diag)


def scan_case2(call, d2: np.ndarray, rng: np.random.Generator) -> OracleOutcome:
    """The oracle's well-spread case, one direction at a time: draw, split,
    flow and, for a 2A cut, evaluate and check it before the next draw.
    A stand-in for ``oracle._case2``; it looks up ``build_flow_instance``
    and ``max_flow`` on the oracle module, so a test that replaces them
    there replaces them here too."""
    alpha, state, h, cfg, rd, omega, total = call
    members, i0 = oracle._medium_ball(omega, d2, total)
    vhat = (total / 3.0) * (state.vectors - state.vectors[i0])
    dist0 = np.sqrt(np.einsum("ij,ij->i", vhat - vhat[0], vhat - vhat[0]))

    sqlog = math.sqrt(log2_weight(h))
    cap_coeff = cfg.beta * total * sqlog * alpha
    threshold = (cfg.c_frac * cfg.beta / 4.0) * total * total * sqlog * alpha

    attempts = cfg.n_dirs_for(h.n)
    last_reason = "no stretched direction found"
    best_cut: OracleOutcome | None = None
    for _ in range(attempts):
        u = random_direction(rng, vhat.shape[1])
        got = direction_split_once(vhat, omega, members, dist0, u, cfg, total)
        if got is None:
            continue
        u_eff, left, right = got
        sources = {i: cap_coeff * omega[i] for i in left}
        sinks = {j: cap_coeff * omega[j] for j in right}
        inst = oracle.build_flow_instance(rd, sources, sinks)
        res = oracle.max_flow(inst)
        extra = {
            "i0": i0,
            "flow_value": res.value,
            "threshold": threshold,
            "left_size": len(left),
            "right_size": len(right),
        }

        if res.value < threshold:
            outcome = single_cut_outcome(call, res, "2A", extra)
            if best_cut is None or outcome.cut.sparsity < best_cut.cut.sparsity:
                best_cut = outcome
            continue

        if best_cut is not None:
            return best_cut

        fa, dec, d_dot_x = oracle._saturated_flow(res, inst, state)
        extra["d_dot_x"] = d_dot_x
        extra["dropped_cycle_mass"] = dec.dropped_cycle_mass
        if d_dot_x >= alpha * (1 - 1e-9):
            return oracle._scaled_flow_dual(call, fa, dec, d_dot_x, "2B", extra)

        eta_cut = cfg.eta_stretch / math.sqrt(log2_weight(h))
        filtered = sum(
            f
            for (i, j), f in dec.demand.items()
            if float((vhat[i] - vhat[j]) @ (vhat[i] - vhat[j])) <= eta_cut * (1 + 1e-9)
        )
        extra["markov_filtered_fraction"] = filtered / max(dec.total_demand(), 1e-300)
        if filtered < dec.total_demand() * 0.5 * (1 - 1e-9):
            raise OracleInvariantError(
                "short-pair flow mass below half despite small demand value",
                dict(extra, case="2C"),
            )

        path = oracle.find_violated_path(vhat, omega, dec.demand, u_eff, cfg, h)
        if path is None:
            last_reason = "no violated path for this direction"
            continue
        triangles = oracle.path_triangles(path)
        f_val = total * total * alpha / (9.0 * cfg.s_viol)
        extra["path"] = path
        cert = DualCertificate(alpha, {tri: f_val for tri in triangles}, None)
        return oracle._dual_outcome(call, cert, "2C", extra)

    if best_cut is not None:
        return best_cut
    raise OracleFailure(last_reason, {"attempts": attempts, "alpha": alpha})
