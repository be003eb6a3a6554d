"""Witness functions for the acceptance criteria, used only by the tests.

They state properties of the solver's building blocks in executable form:
the constraint matrices mat_A and mat_T one cell at a time, the embedding
of a PSD matrix, the matrix exponential and variance form behind the
multiplicative-weights analysis, the demand-norm and capacity-duality
bounds and the flow decomposition identity of the flow layer, the gadget
nodes of the reduced digraph and the subset lift and projection between a
hypergraph and it, a state's Gram matrix V V^T and one pair's squared and
directed distance from its vectors, a path's violation of the l2^2 path
inequality, a subset's weight, a cut evaluator
that scans the edges' frozensets with exact ``Fraction`` sums, independent
of the incidence arrays the package answers cut questions from, the singleton/closure baseline as one cut evaluation per candidate,
and the loops the flow layer replaced: dense F, D and sum f_p T_p
accumulated one ``add_mat_A``/``add_mat_T`` call per entry, the lift that
visits every hyperedge, the certificate check that read a certificate
entry by entry, the oracle's Case 2 scan as it ran one direction at a
time: one draw, one split and one exact cut evaluation per direction, and
the row centering and squared distances as ``np.mean`` and
``np.fill_diagonal`` compute them.
"""

from __future__ import annotations

from fractions import Fraction
import math
import sys
from typing import Iterable, Mapping

import numpy as np

from hyperspars import oracle
from hyperspars.flownet import (
    CONSERVATION_TOL,
    FlowAssignment,
    FlowDecomposition,
    FlowInstance,
    MaxFlowResult,
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
from hyperspars.sdpcore import GramState, TriangleId, spectral_norm

DEFAULT_DEMAND_NORM_CONST = 8.0


# Default PSD slack of cholesky_embed, relative to ||X||.
TOL_PSD_REL = 1e-8


class NotPsdError(ValueError):
    """Matrix is not positive semi-definite within tolerance."""


def cholesky_embed(x: np.ndarray, tol_psd: float | None = None) -> np.ndarray:
    """Vectors v_i (rows) with <v_i, v_j> = X(i, j), via eigendecomposition.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol is a
    genuine PSD violation and raises.
    """
    x = np.asarray(x, dtype=float)
    lam, u = np.linalg.eigh((x + x.T) / 2.0)
    scale = max(abs(lam[0]), abs(lam[-1]), 1e-300)
    tol = tol_psd if tol_psd is not None else TOL_PSD_REL * scale
    if lam[0] < -tol:
        raise NotPsdError(f"eigenvalue {lam[0]:.3e} below -{tol:.3e}")
    lam = np.clip(lam, 0.0, None)
    return u * np.sqrt(lam)


def gram_state(x: np.ndarray) -> GramState:
    """The state of the PSD matrix ``x``, embedded by ``cholesky_embed``."""
    return GramState(cholesky_embed(x))


def dist2(state: GramState, i: int, j: int) -> float:
    """|v_i - v_j|^2 of one pair, from the state's vectors."""
    d = state.vectors[i] - state.vectors[j]
    return float(d @ d)


def gram(state: GramState) -> np.ndarray:
    """The state's Gram matrix X = V V^T."""
    return state.vectors @ state.vectors.T


def directed_distance(vectors: np.ndarray, i: int, j: int) -> float:
    """d(i, j) = |v_i - v_j|^2 - |v_i - v_0|^2 + |v_j - v_0|^2, evaluated
    directly from the embedding vectors."""
    vi, vj, v0 = vectors[i], vectors[j], vectors[0]
    d = vi - vj
    a = vi - v0
    b = vj - v0
    return float(d @ d - a @ a + b @ b)


def _add_sq_diff(m: np.ndarray, i: int, j: int, coeff: float) -> None:
    # coeff * (e_i - e_j)(e_i - e_j)^T; no-op when i == j
    if i == j:
        return
    m[i, i] += coeff
    m[j, j] += coeff
    m[i, j] -= coeff
    m[j, i] -= coeff


def add_mat_A(m: np.ndarray, i: int, j: int, coeff: float) -> None:
    """m += coeff * mat_A(n, i, j), in place."""
    _add_sq_diff(m, i, j, coeff)
    _add_sq_diff(m, i, 0, -coeff)
    _add_sq_diff(m, j, 0, coeff)


def add_mat_T(m: np.ndarray, tri: TriangleId, coeff: float) -> None:
    """m += coeff * mat_T(n, tri), in place."""
    _add_sq_diff(m, tri.a, tri.mid, coeff)
    _add_sq_diff(m, tri.mid, tri.b, coeff)
    _add_sq_diff(m, tri.a, tri.b, -coeff)


def mat_A(n: int, i: int, j: int) -> np.ndarray:
    """Directed-distance matrix: mat_A(n, i, j) . X == d(i, j) for Gram X."""
    m = np.zeros((n, n))
    add_mat_A(m, i, j, 1.0)
    return m


def mat_T(n: int, tri: TriangleId) -> np.ndarray:
    """Triangle-slack matrix: mat_T(p) . X is the l2^2 triangle slack of p."""
    m = np.zeros((n, n))
    add_mat_T(m, tri, 1.0)
    return m


def path_violation(q: np.ndarray, path: list[int]) -> float:
    """sum of hop distances minus endpoint distance, for squared distances q."""
    hops = sum(float(q[a, b]) for a, b in zip(path, path[1:]))
    return hops - float(q[path[0], path[-1]])


def out_cut(h: DirectedHypergraph, subset) -> list[int]:
    """Indices of edges in the out-going cut of ``subset``, read from the
    incidence arrays."""
    inside = np.zeros(h.n, dtype=bool)
    inside[list(subset)] = True
    return np.flatnonzero(h.incidence.crossing(inside)[0]).tolist()


def triangle_weights(cert: DualCertificate) -> dict[TriangleId, float]:
    """A certificate's f_p by triangle, in its order."""
    return {
        TriangleId(*tri): f for tri, f in zip(cert.triangles.tolist(), cert.weights.tolist())
    }


def demand_matrix(demand: Mapping[tuple[int, int], float], n: int) -> np.ndarray:
    """D = sum of d_ij * mat_A(i, j): F of a flow with these pair values."""
    return flow_matrix(FlowAssignment.of((0, i, j, f) for (i, j), f in demand.items()), n)


def certificate_data(cert: DualCertificate | None) -> tuple | None:
    """A certificate's z, triangles, weights and flow entries as Python
    numbers, equal exactly where the certificates are (None for None)."""
    if cert is None:
        return None
    return cert.z, cert.triangles.tolist(), cert.weights.tolist(), list(cert.flow)


def mapping_triangle_sum(triangles: Mapping[TriangleId, float], n: int) -> np.ndarray:
    """``triangle_matrix_sum`` of the f_p that ``triangles`` maps each
    triangle to."""
    cert = DualCertificate.of(0.0, triangles, FlowAssignment.of(()))
    return triangle_matrix_sum(cert.triangles, cert.weights, n)


def per_edge_totals(fa: FlowAssignment) -> dict[int, float]:
    """Each edge's total flow, summed in entry order."""
    totals: dict[int, float] = {}
    for e, _, _, f in fa:
        totals[e] = totals.get(e, 0.0) + f
    return totals


def mat_exp(m: np.ndarray) -> np.ndarray:
    """exp(M) for symmetric M via eigendecomposition; result symmetric PSD."""
    m = np.asarray(m, dtype=float)
    lam, u = np.linalg.eigh((m + m.T) / 2.0)
    out = (u * np.exp(lam)) @ u.T
    return (out + out.T) / 2.0


def mean_centered(vectors: np.ndarray) -> np.ndarray:
    """The rows minus their mean row, by ``np.mean``."""
    return vectors - vectors.mean(axis=0)


def fill_diagonal_squared_distances(vectors: np.ndarray) -> np.ndarray:
    """Squared distances between rows, as ``sdpcore.squared_distances``
    forms them, with ``np.mean`` and ``np.fill_diagonal``."""
    centered = mean_centered(vectors)
    sq = np.einsum("ij,ij->i", centered, centered)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (centered @ centered.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


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
    v = state.vectors
    f_dot_x = sum(f * directed_distance(v, i, j) for _, i, j, f in fa)
    bound = 0.0
    for e in h.edges:
        d_e = max(
            [0.0]
            + [directed_distance(v, i, j) for i in sorted(e.tail) for j in sorted(e.head)]
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
    rhs = mapping_triangle_sum(dec.triangle_weights, n) + demand_matrix(dec.demand, n)
    return float(np.max(np.abs(lhs - rhs)))


def tail_node(rd: ReducedDigraph, e: int) -> int:
    """The digraph node of edge e's tail gadget."""
    return rd.base.n + 2 * e


def head_node(rd: ReducedDigraph, e: int) -> int:
    """The digraph node of edge e's head gadget."""
    return rd.base.n + 2 * e + 1


def back_map(rd: ReducedDigraph, node: int) -> int | None:
    """Original vertex for a digraph node, or None for gadget nodes."""
    return node if node < rd.base.n else None


def weight_of(h: DirectedHypergraph, subset: Iterable[int]) -> int:
    """The vertex weight of ``subset``."""
    return sum(h.vertex_weights[i] for i in subset)


def transform_subset(rd: ReducedDigraph, subset: Iterable[int]) -> frozenset[int]:
    """Canonical lift of an original subset into the reduced digraph."""
    s = frozenset(subset)
    h = rd.base
    lifted = set(s)
    for k, e in enumerate(h.edges):
        if not e.tail.isdisjoint(s):
            lifted.add(tail_node(rd, k))
        if e.head <= s:
            lifted.add(head_node(rd, k))
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
    ws = weight_of(h, s)
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
        tol = CONSERVATION_TOL * min(float(rd.base.edges[e_idx].weight), result.value)
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
                product = fi * fj
                share = product / mid if product >= sys.float_info.min else fi * (fj / mid)
                values.append((e_idx, i, j, share))
    return FlowAssignment.of(values)


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
    d(i, j) >= |v_i - v_j|^2.  ``dist0`` holds the squared distances to
    vertex 0; one within 1e-12 max(dist0) of the median is tied with it
    and goes on both sides.
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
    tol = 1e-12 * float(dist0.max())
    l0_minus = l0[dist0[l0] <= r_med + tol]
    l0_plus = l0[dist0[l0] >= r_med - tol]
    r0_minus = r0[dist0[r0] <= r_med + tol]
    r0_plus = r0[dist0[r0] >= r_med - tol]
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


def scan_case2(call, rng: np.random.Generator) -> OracleOutcome:
    """The oracle's well-spread case, one direction at a time: draw, split,
    flow and, for a 2A cut, evaluate and check it before the next draw.
    A stand-in for ``oracle._case2``; it looks up ``build_flow_instance``
    and ``max_flow`` on the oracle module, so a test that replaces them
    there replaces them here too.  Its distances to vertex 0 are the
    direct |v_i - v_0|^2, not d2's."""
    alpha, state, h, cfg, rd, omega, total, d2 = call
    members, i0 = oracle._medium_ball(omega, d2, total)
    vhat = (total / 3.0) * (state.vectors - state.vectors[i0])
    v = state.vectors
    dist0 = np.einsum("ij,ij->i", v - v[0], v - v[0])

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
        caps = cap_coeff * omega[left], cap_coeff * omega[right]
        inst = oracle.build_flow_instance(rd, left, caps[0], right, caps[1])
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

        fa, dec = oracle._lift(res, inst)
        d_dot_x = oracle._demand_dot(dec.demand, d2)
        extra["d_dot_x"] = d_dot_x
        extra["dropped_cycle_mass"] = dec.dropped_cycle_mass
        if d_dot_x >= alpha * (1 - 1e-9):
            return oracle._scaled_flow_dual(call, fa, dec, d_dot_x, "2B", extra)

        eta_cut = cfg.eta_stretch / math.sqrt(log2_weight(h))
        q = (total / 3.0) ** 2 * d2
        filtered = sum(
            f for (i, j), f in dec.demand.items() if q[i, j] <= eta_cut * (1 + 1e-9)
        )
        extra["markov_filtered_fraction"] = filtered / max(dec.total_demand(), 1e-300)
        if filtered < dec.total_demand() * 0.5 * (1 - 1e-9):
            raise OracleInvariantError(
                "short-pair flow mass below half despite small demand value",
                dict(extra, case="2C"),
            )

        path = oracle.find_violated_path(q, vhat @ u_eff, omega, dec.demand, cfg, h)
        if path is None:
            last_reason = "no violated path for this direction"
            continue
        triangles = oracle.path_triangles(path)
        f_val = total * total * alpha / (9.0 * cfg.s_viol)
        extra["path"] = path
        cert = DualCertificate.of(alpha, dict.fromkeys(triangles, f_val), FlowAssignment.of(()))
        return oracle._dual_outcome(call, cert, "2C", extra)

    if best_cut is not None:
        return best_cut
    raise OracleFailure(last_reason, {"attempts": attempts, "alpha": alpha})


def reference_certificate_check(
    cert: DualCertificate, alpha: float, h: DirectedHypergraph, rho: float
) -> tuple[bool, dict]:
    """``oracle.certificate_check`` as it read a certificate entry by entry:
    the triangles as a dict, the flow as tuples, F and sum f_p T_p by one
    ``add_mat_A``/``add_mat_T`` call per entry, each edge's tail and head
    as frozensets and the per-edge totals as a dict in entry order.  Its
    tolerances are the package's."""
    n = h.n
    report: dict = {"first_failure": None}
    triangles = triangle_weights(cert)
    flow = list(cert.flow)

    def fail(name: str) -> tuple[bool, dict]:
        report["first_failure"] = name
        return False, report

    report["z"] = cert.z
    if cert.z < alpha * (1 - 1e-12):
        return fail("z_below_alpha")
    if any(f < 0 for f in triangles.values()):
        return fail("negative_triangle_weight")
    if any(not 0 <= v < n for tri in triangles for v in tri):
        return fail("triangle_vertex_range")
    for e_idx, i, j, _ in flow:
        if not 0 <= e_idx < h.m:
            report["flow_entry"] = (e_idx, i, j)
            return fail("flow_edge_range")
        edge = h.edges[e_idx]
        if i not in edge.tail or j not in edge.head:
            report["flow_entry"] = (e_idx, i, j)
            return fail("flow_pair_not_in_edge")

    f_mat = loop_flow_matrix(flow, n)
    t_mat = loop_triangle_matrix_sum(triangles, n)
    totals: dict[int, float] = {}
    for e_idx, _, _, f in flow:
        totals[e_idx] = totals.get(e_idx, 0.0) + f
    for e_idx, tot in totals.items():
        cap = float(h.edges[e_idx].weight) / 2.0
        if tot > cap * (1 + 1e-9):
            report["edge_over_capacity"] = (e_idx, tot, cap)
            return fail("flow_capacity")
    if any(f < 0 for _, _, _, f in flow):
        return fail("negative_flow")

    with np.errstate(over="ignore", invalid="ignore"):
        residual = t_mat + cert.z * h.k_matrix - f_mat
        width = float(np.abs(residual).sum(axis=1).max())
    if not width <= rho:
        if not math.isfinite(width) and not np.isfinite(residual).all():
            return fail("residual_not_finite")
        width = spectral_norm(residual)
    report["residual"] = residual
    report["width"] = width
    report["rho"] = rho
    if width > rho * (1 + 1e-6):
        return fail("width_bound")
    return True, report
