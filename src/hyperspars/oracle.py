"""The per-candidate oracle of the primal-dual loop.

Given a normalized Gram state and a candidate value alpha, return either a
sparse cut or a dual certificate (z, triangle weights, flow matrix) of
bounded width.  Dispatch: if some ball of radius 1/sqrt(8 w) holds a quarter
of the vertex weight the vectors are concentrated (Case 1, pure max-flow);
otherwise they are well spread (Case 2: direction sampling, median split,
max-flow, and a violated-path fallback).

An outcome is a function of (alpha, X), the hypergraph, the constants and
the generator's state: the oracle keeps nothing from one call to the next,
and every Case 1 and Case 2 flow is built and solved where it is used.
Cut sparsities and certificate bullets are re-verified numerically on every
run; a breach raises instead of returning a silently wrong outcome.  A
certificate is arrays, built once where it is made.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Mapping, NamedTuple

import numpy as np

from . import flownet
from .flownet import (
    FlowAssignment,
    build_flow_instance,
    decompose,
    lift_flow,
    max_flow,
)
# evaluate_cut and mat_K are not called here any more, but
# perfbench/tracing.py wraps them in this module's namespace, so the names stay
from .hypergraph import (
    Cut,
    DirectedHypergraph,
    ReducedDigraph,
    evaluate_cut,
    evaluate_cuts,
    reduce_to_digraph,
)
from .sdpcore import GramState, TriangleId, mat_K, spectral_norm

__all__ = [
    "OracleConfig",
    "OracleFailure",
    "OracleInvariantError",
    "InconsistentStateError",
    "DualCertificate",
    "average_certificate",
    "OracleOutcome",
    "run_oracle",
    "find_violated_path",
    "certificate_check",
    "log2_skew",
    "log2_weight",
]


class _DiagnosedError(RuntimeError):
    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class OracleFailure(_DiagnosedError):
    """No outcome at this alpha: Case 2 exhausted its retry budget, or a
    valid certificate is wider than rho; carries diagnostics."""


class OracleInvariantError(_DiagnosedError):
    """An outcome failed its own guarantee (cut ratio or certificate).

    This is a defect, not a result of the probe, so it is deliberately not
    an OracleFailure: the driver lets it reach the caller.
    """


class InconsistentStateError(ValueError):
    """Input state contradicts the K . X = 1 normalization."""


TOL_NORM = 1e-6  # slack allowed in the input state's K . X = 1


def log2_skew(h: DirectedHypergraph) -> float:
    """log2(kappa * n) floored at 1; the log factor of the ratio bounds."""
    return max(1.0, math.log2(h.kappa * h.n))


def log2_weight(h: DirectedHypergraph) -> float:
    """log2(total weight) floored at 1; the log factor of Case-2 capacities."""
    return max(1.0, math.log2(h.total_weight))


@dataclass(frozen=True)
class OracleConfig:
    """Explicit values for every constant the analysis leaves inside O(.).

    beta is derived (32 c_path / (9 s_viol c_frac)) so the Case-2 capacity
    coefficient stays consistent with the violated-path parameters.
    """

    c_ball: float = 0.25
    cap_c1: float = 8.0
    c_A: float = 64.0
    c_rho: float = 16.0
    sigma: float = 1.0 / 48.0
    c_frac: float = 1.0 / 128.0
    s_viol: float = 0.25
    c_path: float = 4.0
    dual_scale: float = 1.25
    n_dirs: int | None = None

    def __post_init__(self):
        # the constants may come from a file: 0 divides by zero, < 0 aborts every probe
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "n_dirs" and value is None:
                continue
            kinds, what = ((int,), "integer") if f.name == "n_dirs" else ((int, float), "number")
            ok = isinstance(value, kinds) and not isinstance(value, bool)
            if not (ok and 0 < value <= sys.float_info.max):
                raise ValueError(f"{f.name} must be a finite positive {what}, not {value!r}")

    @property
    def beta(self) -> float:
        return 32.0 * self.c_path / (9.0 * self.s_viol * self.c_frac)

    @property
    def eta_stretch(self) -> float:
        # equals s_viol / (4 c_path) by the choice of beta
        return 8.0 / (9.0 * self.c_frac * self.beta)

    def n_dirs_for(self, n: int) -> int:
        if self.n_dirs is not None:
            return self.n_dirs
        return 8 * math.ceil(math.log2(max(n, 2)))

    def rho(self, alpha: float, h: DirectedHypergraph) -> float:
        """Width bound fed to the multiplicative-weights loop."""
        return self.c_rho * alpha * h.total_weight**2 * math.sqrt(log2_skew(h))

    def ratio_bound(self, alpha: float, h: DirectedHypergraph, case: str) -> float:
        if case.startswith("1"):
            return self.c_A * alpha
        # the well-spread flow case guarantees sparsity below 4 beta sqrt(log) alpha
        return 4.0 * self.beta * math.sqrt(log2_skew(h)) * alpha

    def path_cap(self, h: DirectedHypergraph) -> int:
        return math.ceil(2.0 * self.c_path * math.sqrt(log2_weight(h)))


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Dual variables (z, f_p) plus the flow matrix, as checkable arrays.

    Row k of the (k, 3) int64 array ``triangles`` is the triangle
    (a, b, mid), a < b, and ``weights[k]`` its f_p.  ``flow`` is the
    capacity-respecting hypergraph flow backing F; it has no entries where
    F = 0 (violated-path case).
    """

    z: float
    triangles: np.ndarray
    weights: np.ndarray
    flow: FlowAssignment

    @classmethod
    def of(cls, z: float, triangle_weights: Mapping, flow: FlowAssignment):
        """The certificate whose f_p are ``triangle_weights``' values, by
        (a, b, mid) key with a < b, in its order."""
        triangles = np.array(list(triangle_weights), dtype=np.int64).reshape(-1, 3)
        return cls(z, triangles, np.array(list(triangle_weights.values()), dtype=float), flow)


def average_certificate(certs: list[DualCertificate]) -> DualCertificate | None:
    """The mean of a run's certificates (None for none): z, the triangle
    weights and the flow entries by (e, i, j), each summed exactly rounded
    and divided by the count; triangles in order of first appearance, flow
    entries sorted by key.  The residual is linear in the certificate, so
    the mean's is the mean residual."""
    if not certs:
        return None
    triangles: dict[tuple[int, int, int], list[float]] = {}
    flows: dict[tuple[int, int, int], list[float]] = {}
    for cert in certs:
        for tri, f in zip(map(tuple, cert.triangles.tolist()), cert.weights.tolist()):
            triangles.setdefault(tri, []).append(f)
        for key, f in zip(map(tuple, cert.flow.keys.tolist()), cert.flow.values.tolist()):
            flows.setdefault(key, []).append(f)

    def mean(values) -> float:
        return math.fsum(values) / len(certs)

    fa = FlowAssignment.of((*key, mean(fs)) for key, fs in sorted(flows.items()))
    triangle_mean = {tri: mean(fs) for tri, fs in triangles.items()}
    return DualCertificate.of(mean(cert.z for cert in certs), triangle_mean, fa)


@dataclass(frozen=True)
class OracleOutcome:
    """Tagged union: a Cut or a DualCertificate, plus run diagnostics.

    A dual outcome also carries the residual sum f_p T_p + z K - F and its
    width, an upper bound on its spectral norm, as certificate_check formed
    them.
    """

    kind: str  # "cut" | "dual"
    cut: Cut | None = None
    dual: DualCertificate | None = None
    residual: np.ndarray | None = None
    width: float | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def case(self) -> str:
        return self.diagnostics.get("case", "?")


class _Call(NamedTuple):
    """One oracle call: its inputs and the data run_oracle derives from
    them once for whichever case runs."""

    alpha: float
    state: GramState
    h: DirectedHypergraph
    cfg: OracleConfig
    rd: ReducedDigraph
    omega: np.ndarray
    total: float
    d2: np.ndarray


def _ball_weights(d2: np.ndarray, omega: np.ndarray, radius2: float) -> np.ndarray:
    return (d2 <= radius2) @ omega


def run_oracle(
    alpha: float,
    state: GramState,
    h: DirectedHypergraph,
    cfg: OracleConfig | None = None,
    rng: np.random.Generator | None = None,
) -> OracleOutcome:
    """Dispatch on vector concentration and run the matching case.

    This is the one place the per-call data (reduced digraph, vertex
    weights, squared distances, small-ball weights) is derived; each case
    takes it as given.  The reduced digraph is cached on ``h``, so deriving
    it is a lookup.  Cuts are searched on the side of vertex 0 that
    contains it; the side that excludes it is the same search on
    ``reverse(h)``, with the cut complemented.

    Raises OracleFailure when there is no outcome at this alpha (Case 2
    exhausted its retries, or the certificate is wider than rho), and
    OracleInvariantError when an outcome fails its own guarantee.
    """
    cfg = cfg or OracleConfig()
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if rng is None:
        rng = np.random.default_rng(0)

    omega = np.array(h.vertex_weights, dtype=float)
    total = float(h.total_weight)
    kdot = state.k_dot(h.vertex_weights)
    if abs(kdot - 1.0) > TOL_NORM:
        raise ValueError(f"state not normalized: K.X = {kdot:.9g}")

    d2 = state.pairwise_dist2()
    radius2 = 1.0 / (8.0 * total * total)
    ball_w = _ball_weights(d2, omega, radius2)
    i0 = int(np.argmax(ball_w))
    call = _Call(alpha, state, h, cfg, reduce_to_digraph(h), omega, total, d2)
    if ball_w[i0] >= cfg.c_ball * total:
        return _case1(call, i0, d2[i0] <= radius2)
    return _case2(call, rng)


def _cut_outcome(call: _Call, found: list[tuple[np.ndarray, dict]], case: str) -> OracleOutcome:
    """The first cut of least sparsity among those short max-flows leave:
    for each flow's reachability mask and diagnostics in ``found``, the
    vertices its residual graph reaches from the source, all scored in one
    pass.

    Every cut is checked in order, for properness and then against the
    ratio bound, so the first breach raises as it would if each cut were
    checked as its flow ran."""
    h = call.h
    masks = np.array([reachable[: h.n] for reachable, _ in found])
    # integer weights: every order of summing them is exact
    weights = (masks @ call.omega).tolist()

    def diagnostics(k: int) -> dict:
        inside = weights[k]
        return dict(found[k][1], side_weights=(inside, h.total_weight - inside), case=case)

    subsets = []
    for mask in masks:
        members = frozenset(np.flatnonzero(mask).tolist())
        if not members or len(members) == h.n:
            break
        subsets.append(members)
    bound = call.cfg.ratio_bound(call.alpha, h, case)
    cuts = evaluate_cuts(h, subsets)
    for k, cut in enumerate(cuts):
        if float(cut.sparsity) > bound * (1 + 1e-9):
            raise OracleInvariantError(
                f"case {case} cut sparsity {float(cut.sparsity):.6g} exceeds "
                f"ratio bound {bound:.6g}",
                dict(diagnostics(k), ratio_bound=bound, sparsity=float(cut.sparsity)),
            )
    improper = len(subsets)  # the index of the first improper cut, if any
    if improper < len(found):
        size = int(np.count_nonzero(masks[improper]))
        raise OracleInvariantError(
            f"case {case} produced an improper cut ({size} of {h.n})", diagnostics(improper)
        )
    best = min(range(len(cuts)), key=lambda k: cuts[k].sparsity)
    diag = dict(diagnostics(best), ratio_bound=bound)
    return OracleOutcome("cut", cut=cuts[best], diagnostics=diag)


def _lift(
    res: flownet.MaxFlowResult, inst: flownet.FlowInstance
) -> tuple[FlowAssignment, flownet.FlowDecomposition]:
    """A saturating max-flow lifted to the hypergraph, and its path
    decomposition."""
    fa = lift_flow(res, inst)
    return fa, decompose(fa, inst.sources.tolist(), inst.sinks.tolist())


def _demand_dot(demand: Mapping[tuple[int, int], float], d2: np.ndarray) -> float:
    """D . X, the value of a demand on the state of squared distances d2:
    each pair (i, j) adds f d(i, j) = f (d2[i, j] - d2[0, i] + d2[0, j])."""
    return float(sum(f * (d2[i, j] - d2[0, i] + d2[0, j]) for (i, j), f in demand.items()))


def _residual_dot(residual: np.ndarray, d2: np.ndarray) -> float:
    """R . X from the squared distances d2 of X's vectors.

    d2 = diag(X) 1^T + 1 diag(X)^T - 2 X, and R 1 = 0 (K, every T_p and F
    annihilate the ones vector), so R . d2 = -2 R . X."""
    return -0.5 * float(np.vdot(residual, d2))


def _dual_outcome(call: _Call, cert: DualCertificate, case: str, extra: dict) -> OracleOutcome:
    rho = call.cfg.rho(call.alpha, call.h)
    diag = dict(extra, case=case, rho=rho)
    ok, report = certificate_check(cert, call.alpha, call.h, rho)
    # the one bullet that reads the state: (sum f_p T_p + z K) . X <= F . X,
    # up to a slack relative to alpha, the scale of every term
    if report["first_failure"] in (None, "width_bound"):
        if _residual_dot(report["residual"], call.d2) > 1e-7 * call.alpha:
            ok, report["first_failure"] = False, "dual_dot_bound"
    if not ok:
        if report["first_failure"] == "width_bound":
            # the dual data itself is valid, it is just too wide for the
            # configured loop width; no progress at this alpha
            raise OracleFailure(
                f"case {case} certificate width {report['width']:.6g} exceeds rho {rho:.6g}",
                dict(diag, report=report),
            )
        raise OracleInvariantError(
            f"case {case} certificate failed: {report['first_failure']}",
            dict(diag, report=report),
        )
    return OracleOutcome(
        "dual", dual=cert, residual=report["residual"], width=report["width"], diagnostics=diag
    )


def _scaled_flow_dual(
    call: _Call,
    fa: FlowAssignment,
    dec: flownet.FlowDecomposition,
    d_dot_x: float,
    case: str,
    extra: dict,
) -> OracleOutcome:
    """Dual outcome from a saturating flow, scaled down to what the demand
    bound needs: D . X barely above alpha keeps the certificate width small
    without touching any other bullet (scaling preserves them all)."""
    alpha = call.alpha
    scale = 1.0
    if d_dot_x > alpha:
        scale = min(1.0, call.cfg.dual_scale * alpha / d_dot_x)
    cert = DualCertificate.of(alpha, dec.triangle_weights, fa)
    if scale < 1.0:
        flow = FlowAssignment(fa.keys, fa.values * scale)
        cert = DualCertificate(alpha, cert.triangles, cert.weights * scale, flow)
    extra = dict(extra, d_dot_x=d_dot_x, flow_scale=scale)
    return _dual_outcome(call, cert, case, extra)


def _case1(call: _Call, i0: int, in_ball: np.ndarray) -> OracleOutcome:
    """Concentrated-vectors case: one max-flow decides cut versus dual.

    ``in_ball`` marks the heavy small ball around ``i0`` that the dispatch
    found; the ball, the direction and alpha set the terminal caps."""
    alpha, _, _, cfg, rd, omega, total, d2 = call
    left = in_ball.nonzero()[0]
    right = (~in_ball).nonzero()[0]
    if not len(right):
        raise InconsistentStateError("ball covers all weight despite K.X = 1")
    w_l = float(omega[left].sum())
    w_r = float(omega[right].sum())
    gamma = w_r / w_l

    h0 = d2[0]
    q_l = gamma * float(omega[left] @ h0[left])
    q_r = float(omega[right] @ h0[right])
    forward = q_l <= q_r

    c = cfg.cap_c1 * total * alpha
    left_side = (left, c * gamma * omega[left])
    right_side = (right, c * omega[right])
    if forward:
        inst = build_flow_instance(rd, *left_side, *right_side)
    else:
        inst = build_flow_instance(rd, *right_side, *left_side)
    res = max_flow(inst)
    total_cap = inst.source_total
    extra = {
        "i0": i0,
        "gamma": gamma,
        "forward": forward,
        "flow_value": res.value,
        "source_cap": total_cap,
    }

    if res.value < total_cap * (1.0 - 1e-9):
        return _cut_outcome(call, [(res.reachable, extra)], "1A")

    fa, dec = _lift(res, inst)
    d_dot_x = _demand_dot(dec.demand, d2)
    extra["dropped_cycle_mass"] = dec.dropped_cycle_mass
    return _scaled_flow_dual(call, fa, dec, d_dot_x, "1B", extra)


def _medium_ball(omega: np.ndarray, d2: np.ndarray, total: float) -> tuple[np.ndarray, int]:
    """Locate the heavy medium-radius ball S = B(i0, 3/w) of the spread case;
    returns S's members, sorted, and i0.

    Guarantees (checked): weight(S) >= w/2, all of S within squared distance
    9/w^2 of i0, and pairwise spread over S at least 1/128.
    """
    radius2 = 9.0 / (total * total)
    ball_w = _ball_weights(d2, omega, radius2)
    i0 = int(np.argmax(ball_w))
    if ball_w[i0] < total / 2.0:
        raise InconsistentStateError(
            "no heavy medium ball; state violates K.X = 1"
        )
    members = np.flatnonzero(d2[i0] <= radius2)
    sub = d2[np.ix_(members, members)]
    spread = 0.5 * float(omega[members] @ sub @ omega[members])
    if spread < 1.0 / 128.0 - 1e-9:
        raise InconsistentStateError(f"spread {spread:.6g} below guaranteed 1/128")
    return members, i0


def _direction_splits(
    vm: np.ndarray,
    omega: np.ndarray,
    members: np.ndarray,
    dist0: np.ndarray,
    dirs: list[np.ndarray],
    cfg: OracleConfig,
    total: float,
):
    """Split the medium ball S along each direction of ``dirs``; yields
    (direction, L, R), L and R as vertex arrays, or None where the
    direction gives no split, in order.

    ``vm`` holds the rescaled vectors of S's ``members`` and ``dist0`` every
    vertex's squared distance to vertex 0.  Along a direction, L0 and R0 are
    the shortest prefix and suffix of S in projection order that each weigh
    at least c_frac w, and they must lie sigma / sqrt(w) apart; the weighted
    median of ``dist0`` over L0 then trims them to L and R.  A distance
    within 1e-12 max(dist0) of the median is tied with it and goes on both
    sides, so rounding cannot move the split.  Every (i, j) in L x R
    satisfies the projection stretch along the returned direction and
    d(i, j) >= |v_i - v_j|^2.  All directions are split at once, one row of
    each (directions x |S|) array per direction; the vertex arrays are read
    out as the scan asks for them.
    """
    size = len(members)
    rows = np.arange(len(dirs))[:, None]
    proj = np.array(dirs) @ vm.T
    order = np.argsort(proj, axis=1, kind="stable")
    sorted_members = members[order]
    w_sorted = omega[sorted_members]
    target = cfg.c_frac * total
    # the number of prefix (suffix) sums below target, which on these
    # nondecreasing sums is searchsorted's left insertion point
    k_lo = (np.cumsum(w_sorted, axis=1) < target).sum(axis=1, keepdims=True)
    k_hi = (np.cumsum(w_sorted[:, ::-1], axis=1) < target).sum(axis=1, keepdims=True)
    first_r0 = size - k_hi - 1
    lo = order[rows, np.minimum(k_lo, size - 1)]
    hi = order[rows, np.maximum(first_r0, 0)]
    stretch = cfg.sigma / math.sqrt(total)
    split = (k_lo < size) & (k_hi < size) & ~(proj[rows, hi] - proj[rows, lo] < stretch)

    # the weighted median of dist0 over L0: L0's entries stably sorted
    # first, the rest after them with weight 0
    cols = np.arange(size)
    in_l0 = cols <= k_lo
    in_r0 = cols >= first_r0
    dist = dist0[sorted_members]
    by_dist = np.argsort(np.where(in_l0, dist, np.inf), axis=1, kind="stable")
    cum = np.cumsum(np.where(in_l0, w_sorted, 0.0)[rows, by_dist], axis=1)
    at = np.minimum((cum < cum[:, -1:] / 2.0).sum(axis=1, keepdims=True), k_lo)
    r_med = dist[rows, by_dist[rows, np.minimum(at, size - 1)]]
    tol = 1e-12 * float(dist0.max())
    near, far = dist <= r_med + tol, dist >= r_med - tol
    l_near, l_far = in_l0 & near, in_l0 & far
    r_near, r_far = in_r0 & near, in_r0 & far
    # integer weights: these sums are exact in any order
    forward = (r_far * w_sorted).sum(axis=1) >= (r_near * w_sorted).sum(axis=1)
    forward &= r_far.any(axis=1) & l_near.any(axis=1)
    backward = r_near.any(axis=1) & l_far.any(axis=1)
    split = split[:, 0] & (forward | backward)
    for u, row, ok, fwd, *sides in zip(
        dirs, sorted_members, split.tolist(), forward.tolist(), l_near, r_far, r_near, l_far
    ):
        if not ok:
            yield None
        elif fwd:
            yield u, row[sides[0]], row[sides[1]]
        else:
            yield -u, row[sides[2]], row[sides[3]]


def _unit_directions(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    """``count`` random unit directions.

    The normals come in one draw, which the generator fills as it would
    ``count`` draws of ``dim``; a row too short to normalize is skipped,
    and another drawn in its place."""
    dirs: list[np.ndarray] = []
    while len(dirs) < count:
        for z in rng.standard_normal((count - len(dirs), dim)):
            norm = float(np.linalg.norm(z))
            if norm > 1e-12:
                dirs.append(z / norm)
    return dirs


def _case2(call: _Call, rng: np.random.Generator) -> OracleOutcome:
    """Well-spread case: sampled directions, each split and run as one
    max-flow, then cut / dual / path.

    A flow below the threshold leaves a 2A cut; the scan goes on for a
    sparser one until a flow reaches the threshold, and returns the first
    cut of least sparsity.  Before the first 2A cut, such a flow gives a 2B
    certificate or a 2C path, or the scan moves on; after it, a direction
    can only add a cut or end the scan.  So directions are drawn and split
    one at a time until the first 2A cut, and the rest are drawn and split
    as one batch, and all the cuts are scored in one pass when the scan
    ends.  The outcome is that of drawing, splitting and scoring one
    direction at a time, but a scan that ends inside the batch has drawn
    all of its directions.  Every distance comes from d2; the vectors give
    only the projections.
    """
    alpha, state, h, cfg, rd, omega, total, d2 = call
    members, i0 = _medium_ball(omega, d2, total)
    vhat = (total / 3.0) * (state.vectors - state.vectors[i0])
    vm = vhat[members]
    dim = vhat.shape[1]

    sqlog = math.sqrt(log2_weight(h))
    cap_coeff = cfg.beta * total * sqlog * alpha
    threshold = (cfg.c_frac * cfg.beta / 4.0) * total * total * sqlog * alpha

    attempts = cfg.n_dirs_for(h.n)
    last_reason = "no stretched direction found"
    found: list[tuple[np.ndarray, dict]] = []  # each 2A flow's reach mask and diagnostics
    scanned = 0
    while scanned < attempts:
        dirs = _unit_directions(rng, dim, attempts - scanned if found else 1)
        for got in _direction_splits(vm, omega, members, d2[0], dirs, cfg, total):
            scanned += 1
            if got is None:
                continue
            u_eff, left, right = got
            caps = cap_coeff * omega[left], cap_coeff * omega[right]
            inst = build_flow_instance(rd, left, caps[0], right, caps[1])
            res = max_flow(inst)
            extra = {
                "i0": i0,
                "flow_value": res.value,
                "threshold": threshold,
                "left_size": len(left),
                "right_size": len(right),
            }

            if res.value < threshold:
                found.append((res.reachable, extra))
                continue

            if found:
                return _cut_outcome(call, found, "2A")

            fa, dec = _lift(res, inst)
            d_dot_x = _demand_dot(dec.demand, d2)
            extra["d_dot_x"] = d_dot_x
            extra["dropped_cycle_mass"] = dec.dropped_cycle_mass
            if d_dot_x >= alpha * (1 - 1e-9):
                return _scaled_flow_dual(call, fa, dec, d_dot_x, "2B", extra)

            # at least half the flow sits on short rescaled pairs (Markov over
            # the demand given d_dot_x < alpha and flow >= threshold), which is
            # exactly the stretched-pair supply the path search feeds on
            eta_cut = cfg.eta_stretch / math.sqrt(log2_weight(h))
            q = (total / 3.0) ** 2 * d2  # rescaled squared distances
            filtered = sum(
                f for (i, j), f in dec.demand.items() if q[i, j] <= eta_cut * (1 + 1e-9)
            )
            extra["markov_filtered_fraction"] = filtered / max(dec.total_demand(), 1e-300)
            if filtered < dec.total_demand() * 0.5 * (1 - 1e-9):
                raise OracleInvariantError(
                    "short-pair flow mass below half despite small demand value",
                    dict(extra, case="2C"),
                )

            path = find_violated_path(q, vhat @ u_eff, omega, dec.demand, cfg, h)
            if path is None:
                last_reason = "no violated path for this direction"
                continue
            triangles = path_triangles(path)
            f_val = total * total * alpha / (9.0 * cfg.s_viol)
            extra["path"] = path
            cert = DualCertificate.of(alpha, dict.fromkeys(triangles, f_val), FlowAssignment.of(()))
            return _dual_outcome(call, cert, "2C", extra)

    if found:
        return _cut_outcome(call, found, "2A")
    raise OracleFailure(last_reason, {"attempts": attempts, "alpha": alpha})


def path_triangles(path: list[int]) -> list[TriangleId]:
    """Triangles anchored at the path start: tri({i0, i_{j+1}}; mid i_j)."""
    return [
        TriangleId.make(path[0], path[a + 1], path[a]) for a in range(1, len(path) - 1)
    ]


def find_violated_path(
    q: np.ndarray,
    proj: np.ndarray,
    omega: np.ndarray,
    demand: Mapping[tuple[int, int], float],
    cfg: OracleConfig,
    h: DirectedHypergraph,
) -> list[int] | None:
    """Search for a short path whose l2^2 path inequality fails by s_viol.

    ``q`` holds the rescaled squared distances and ``proj`` each vertex's
    rescaled projection on the split's direction.  A direct triple scan
    runs first; then chains of stretched hops (small rescaled distance,
    positive projection step) are grown with a bounded-hop shortest-path
    pass.  Both searches add the candidate's q entries in path order, so
    the violation they compare with s_viol is the path's own.
    """
    n = q.shape[0]
    s_target = cfg.s_viol

    # 1) triple scan
    best = (0.0, None)
    for mid in range(n):
        slack = q[:, mid][:, None] + q[mid, :][None, :] - q
        slack[mid, :] = np.inf
        slack[:, mid] = np.inf
        np.fill_diagonal(slack, np.inf)
        a, b = np.unravel_index(int(np.argmin(slack)), slack.shape)
        val = float(slack[a, b])
        if val < best[0]:
            best = (val, [int(a), mid, int(b)])
    if best[1] is not None and best[0] <= -s_target:
        return best[1]

    # 2) chained stretched hops (demand support first, then all pairs)
    total = float(omega.sum())
    stretch = cfg.sigma / math.sqrt(total)
    eta_cut = cfg.eta_stretch / math.sqrt(log2_weight(h))
    cap = max(2, cfg.path_cap(h))

    def hop_arcs(restrict_to_demand: bool) -> list[tuple[int, int]]:
        arcs = []
        if restrict_to_demand:
            pairs = [(i, j) for (i, j), f in demand.items() if f > 0]
        else:
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for i, j in pairs:
            if q[i, j] <= eta_cut and proj[j] - proj[i] >= stretch * (1 - 1e-12):
                arcs.append((i, j))
        return arcs

    for restrict in (True, False):
        arcs = hop_arcs(restrict)
        if not arcs:
            continue
        path = _best_chain(q, arcs, proj, cap, s_target)
        if path is not None:
            return path
    return None


def _best_chain(
    q: np.ndarray,
    arcs: list[tuple[int, int]],
    proj: np.ndarray,
    cap: int,
    s_target: float,
) -> list[int] | None:
    """Hop-capped shortest hop-sums on the stretched-hop DAG.

    Arcs strictly increase the projection, so processing vertices in
    projection order gives exact single-pass shortest paths per start; a
    violated path shows up as hop-sum minus endpoint distance <= -s_target
    within the hop cap.
    """
    adj: dict[int, list[int]] = {}
    for i, j in arcs:
        adj.setdefault(i, []).append(j)
    order = sorted({v for arc in arcs for v in arc}, key=lambda v: (proj[v], v))
    starts = sorted(adj)
    best_viol = -s_target
    best_path: list[int] | None = None
    for start in starts:
        dist = {start: 0.0}
        hops = {start: 0}
        parent: dict[int, int] = {}
        for u in order:
            if u not in dist or u not in adj:
                continue
            du = dist[u]
            hu = hops[u]
            if hu >= cap:
                continue
            for v in adj[u]:
                nd = du + q[u, v]
                if nd < dist.get(v, math.inf) - 1e-18:
                    dist[v] = nd
                    hops[v] = hu + 1
                    parent[v] = u
        for v, d in dist.items():
            if v == start or hops[v] < 2 or hops[v] > cap:
                continue
            viol = d - q[start, v]
            if viol <= best_viol:
                path = [v]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                path.reverse()
                best_viol = viol
                best_path = path
    return best_path


def certificate_check(
    cert: DualCertificate,
    alpha: float,
    h: DirectedHypergraph,
    rho: float,
) -> tuple[bool, dict]:
    """Numerically verify every certificate bullet; returns (ok, report).

    Bullets: z >= alpha; f_p >= 0; every triangle vertex lies in [0, n);
    every flow entry (e, i, j, f) names an edge e of h with i in its tail
    and j in its head; F is backed by a capacity-respecting flow;
    the residual's cells are finite and its spectral norm is at most rho.
    F annihilates the ones vector by construction, as a sum of mat_A terms
    that each do, so no bullet tests it.  All are convex, so a run's average
    certificate passes where each one does; the bullet that reads a state X
    is the oracle's own.  Each bullet is one pass over the certificate's
    arrays, and every tolerance is relative to the instance's scale.  This is
    the one place the residual R = sum f_p T_p + z K - F and its width are
    formed: once reached, they are in the report as ``residual`` and
    ``width``.  The width is an upper bound on ||R||: R's largest absolute
    row sum when that is at most rho, which settles the bullet without an
    eigendecomposition, and otherwise the exact norm, tested against rho
    with a relative slack of 1e-6.  Cells are tested for finiteness only
    when the row-sum bound is not finite.
    """
    n = h.n
    k = h.k_matrix
    report: dict = {"first_failure": None}

    def fail(name: str) -> tuple[bool, dict]:
        report["first_failure"] = name
        return False, report

    report["z"] = cert.z
    if cert.z < alpha * (1 - 1e-12):
        return fail("z_below_alpha")

    if np.count_nonzero(cert.weights < 0):
        return fail("negative_triangle_weight")

    # the structure the matrices index by: the scatter checks that every
    # triangle vertex is in [0, n) before it adds anything
    try:
        t_mat = flownet.triangle_matrix_sum(cert.triangles, cert.weights, n)
    except IndexError:
        return fail("triangle_vertex_range")
    fa = cert.flow
    # in Python: a handful of entries costs no array work
    tails, heads = h.incidence.tail.lists, h.incidence.head.lists
    for e_idx, i, j in fa.keys.tolist():
        if not 0 <= e_idx < h.m:
            report["flow_entry"] = (e_idx, i, j)
            return fail("flow_edge_range")
        if i not in tails[e_idx] or j not in heads[e_idx]:
            report["flow_entry"] = (e_idx, i, j)
            return fail("flow_pair_not_in_edge")
    f_mat = flownet.flow_matrix(fa, n)

    # per-edge totals summed in entry order
    edges = fa.keys[:, 0]
    totals = np.bincount(edges, fa.values, h.m)
    caps = h.incidence.capacities
    over = totals > caps * (1 + 1e-9)
    if np.count_nonzero(over):
        # the first in order of appearance
        e_idx = int(edges[over[edges].argmax()])
        report["edge_over_capacity"] = (e_idx, float(totals[e_idx]), float(caps[e_idx]))
        return fail("flow_capacity")
    if np.count_nonzero(fa.values < 0):
        return fail("negative_flow")

    # the largest absolute row sum bounds the norm of the symmetric R; the
    # exact norm is needed only where that bound does not settle the check,
    # and exists only where every cell is finite (an overflow to inf or NaN
    # is named below, so numpy need not warn of it)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = t_mat + cert.z * k - f_mat
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

