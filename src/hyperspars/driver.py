"""Primal-dual driver: the per-candidate multiplicative-weights loop, the
two-sided run over the designated vertex, and the binary search that yields
a cut plus, where a run passes its regret check, a certified lower bound.

A run keeps one certificate, the average of its steps', and certifies
"optimum >= alpha / 2" once that average passes regret_check, at any step
count (the averaged-dual argument of Arora and Kale).  The loop tests the
check after the dual steps t = 1, 2, 4, ... and at its horizon, and stops
at the first pass; a run without one aborts.

The count T = ceil(16 kappa^2 rho^2 n^2 ln n / (alpha^2 total^4)) only sets
the horizon min(T, t_cap) and the step size sqrt(ln n / horizon).  It leans
on the weighted complete-graph Laplacian K, whose nonzero eigenvalues are
at least total^2 / (kappa n); a trace bound (-I . X >= -Theta(kappa n^2 /
total^2)) would cost an extra n^2 factor, because the identity penalizes
the all-ones direction that K ignores, and is deliberately not used.
run_numbers derives rho, the horizon and the step size, for the loop and
for check-cert alike.  Each step calls the oracle on its iterate alone:
nothing of one step's flows is kept for the next.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

# mat_K, reduce_to_digraph and spectral_norm are not called here any more, but
# perfbench/tracing.py wraps them in this module's namespace, so the names stay
from .hypergraph import (
    Cut,
    DirectedHypergraph,
    evaluate_cut,
    out_closure,
    reduce_to_digraph,
    reverse,
)
from .oracle import (
    DualCertificate,
    OracleConfig,
    OracleFailure,
    OracleInvariantError,
    average_certificate,
    certificate_check,
    run_oracle,
)
from .sdpcore import GramState, center_rows, mat_K, min_eigenvalue, spectral_norm

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "AlgorithmRun",
    "ProbeResult",
    "SolveResult",
    "theoretical_iterations",
    "run_numbers",
    "regret_check",
    "run_algorithm1",
    "run_both_sides",
    "binary_search",
]


@dataclass(frozen=True)
class SolverConfig:
    """Binary-search geometry, iteration caps, and oracle constants."""

    t_cap: int = 5000
    alpha_lo: float | None = None
    alpha_hi: float | None = None
    search_ratio: float = 1.5
    max_probes: int = 48
    oracle: OracleConfig = field(default_factory=OracleConfig)

    def __post_init__(self):
        for name, least in (("t_cap", 1), ("max_probes", 0)):
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool) and value >= least):
                raise ValueError(f"{name} must be an integer of at least {least}, not {value!r}")
        if not 1.0 < self.search_ratio < math.inf:
            raise ValueError(f"search_ratio must be finite and above 1, not {self.search_ratio!r}")
        for name in ("alpha_lo", "alpha_hi"):
            value = getattr(self, name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if value is not None and not (number and 0 < value <= sys.float_info.max):
                raise ValueError(f"{name} must be a finite positive number, not {value!r}")
        if self.alpha_lo is not None and self.alpha_hi is not None:
            if self.alpha_lo > self.alpha_hi:
                raise ValueError("alpha_lo must not exceed alpha_hi")


@dataclass(frozen=True)
class IterationRecord:
    """One iteration; the update norm of a dual step is at most width / rho."""

    t: int
    case: str
    width: float


@dataclass
class AlgorithmRun:
    """Transcript of one multiplicative-weights run at a fixed alpha."""

    alpha: float
    side: str
    outcome: str  # cut | certified | aborted
    t_horizon: int
    iterations: int
    eta: float
    rho: float
    records: list[IterationRecord] = field(default_factory=list)
    certificate: DualCertificate | None = None  # the average; None without dual steps
    cut: Cut | None = None
    reason: str = ""


def theoretical_iterations(alpha: float, h: DirectedHypergraph, cfg: OracleConfig) -> int:
    """T = ceil(16 kappa^2 (rho / alpha)^2 n^2 ln n / w^4).

    rho is linear in alpha, so T does not depend on alpha; taking the ratio
    first keeps rho^2 / alpha^2 from overflowing or underflowing wherever
    rho itself is finite.  Where rho(alpha) overflows, T is not defined;
    run_numbers rejects such an alpha.
    """
    ratio = cfg.rho(alpha, h) / alpha
    n = h.n
    w4 = float(h.total_weight) ** 4
    return math.ceil(16.0 * h.kappa**2 * ratio**2 * n**2 * math.log(n) / w4)


def run_numbers(
    alpha: float, h: DirectedHypergraph, cfg: SolverConfig
) -> tuple[float, int, float]:
    """A run's width rho, horizon min(T, t_cap) and step size
    sqrt(ln n / horizon) at ``alpha``; ValueError where rho overflows, or
    where it underflows so far that 1 / rho does."""
    rho = cfg.oracle.rho(alpha, h)
    if not math.isfinite(rho):
        # regret_check's tolerance -1e-6 rho would be -inf and pass any run
        raise ValueError(f"alpha {alpha!r} is too large: its width rho is not finite")
    if not rho > 0 or not math.isfinite(1.0 / rho):
        # the loop scales every step's residual by 1 / rho
        raise ValueError(f"alpha {alpha!r} is too small: 1 / rho is not finite at rho {rho!r}")
    t_horizon = min(theoretical_iterations(alpha, h, cfg.oracle), cfg.t_cap)
    return rho, t_horizon, math.sqrt(math.log(h.n) / t_horizon)


def regret_check(
    alpha: float, h: DirectedHypergraph, residual: np.ndarray, rho: float
) -> tuple[bool, float]:
    """Whether lambda_min((alpha / 2) K - R) >= -1e-6 rho, and that value; an
    absolute tolerance would certify false bounds on tiny weights."""
    check = min_eigenvalue((alpha / 2.0) * h.k_matrix - residual)
    return check >= -1e-6 * rho, check


def mw_state(m_sum: np.ndarray, eta: float, vertex_weights) -> GramState:
    """Primal iterate X = exp(-eta sum M) / (K . exp(-eta sum M)), with K the
    weighted complete-graph Laplacian of ``vertex_weights``.

    The eigenbasis gives K . W, so the vectors come out normalized; the
    oracle checks K . X = 1 on its own squared distances.  The embedding is
    centered before use: every consumed quantity is translation-invariant,
    and centering keeps the numerically huge all-ones component of W out of
    the floating-point evaluations.  A zero sum, the first step's, has the
    eigenpairs (0, I) that eigh returns for it, without the
    eigendecomposition.
    """
    if m_sum.any():
        lam, u = np.linalg.eigh(-eta * m_sum)
    else:
        lam, u = np.zeros(len(m_sum)), np.eye(len(m_sum))
    shift = float(lam[-1])
    w_lam = np.exp(lam - shift)
    # K . W summed in the eigenbasis as nonnegative variance terms:
    # u_k^T K u_k = total^2 * Var_delta(u_k), immune to the cancellation
    # that the entrywise product suffers once the spread collapses
    w = np.asarray(vertex_weights, dtype=float)
    total = w.sum()
    delta = w / total
    mu = delta @ u
    quad = total * total * (delta @ (u - mu) ** 2)
    kdw_scaled = float(quad @ w_lam)
    if not kdw_scaled > 0.0:
        raise ArithmeticError("K . W underflowed to zero; state degenerate")
    return GramState(center_rows(u * np.sqrt(w_lam / kdw_scaled)))


def run_algorithm1(
    h: DirectedHypergraph,
    alpha: float,
    side: str,
    cfg: SolverConfig | None = None,
    rng: np.random.Generator | None = None,
) -> AlgorithmRun:
    """One primal-dual run at candidate value alpha on one side of vertex 0.

    The side "in" searches cuts that contain vertex 0; "out" runs the same
    search on the reversed hypergraph and complements its cut.

    Each iteration makes one eigendecomposition, the primal update in
    mw_state: certificate_check bounds the width by the residual's largest
    absolute row sum and takes the exact norm only when that bound exceeds
    rho.  The residual is also the update added to the running sum.  Each
    checkpoint adds the regret check's one; a pass adds the average's, plus
    one for the average's width when its bound exceeds rho.
    An OracleInvariantError is a defect and propagates to the caller.
    """
    cfg = cfg or SolverConfig()
    if side not in ("in", "out"):
        raise ValueError("side must be 'in' or 'out'")
    if not 0 < alpha <= sys.float_info.max:
        raise ValueError(f"alpha must be a finite positive number, not {alpha!r}")
    if h.n < 2:
        raise ValueError("solver needs at least two vertices")
    if rng is None:
        rng = np.random.default_rng(0)

    h_run = h if side == "in" else reverse(h)
    n = h.n
    rho, t_horizon, eta = run_numbers(alpha, h, cfg)

    run = AlgorithmRun(
        alpha=alpha,
        side=side,
        outcome="aborted",
        t_horizon=t_horizon,
        iterations=0,
        eta=eta,
        rho=rho,
    )

    certificates: list[DualCertificate] = []
    m_sum = np.zeros((n, n))
    for t in range(1, t_horizon + 1):
        state = mw_state(m_sum, eta, h.vertex_weights)

        try:
            outcome = run_oracle(alpha, state, h_run, cfg.oracle, rng)
        except OracleFailure as exc:
            run.reason = f"oracle: {exc}"
            break
        run.iterations = t

        if outcome.kind == "cut":
            assert outcome.cut is not None
            subset = outcome.cut.subset
            if side == "out":
                subset = frozenset(range(n)) - subset
            run.cut = evaluate_cut(h, subset)
            run.records.append(IterationRecord(t, outcome.case, 0.0))
            run.outcome = "cut"
            break

        assert outcome.dual is not None
        run.records.append(IterationRecord(t, outcome.case, outcome.width))
        certificates.append(outcome.dual)
        # the oracle's check bounds the update's norm by width / rho <= 1
        m_sum += -(1.0 / rho) * outcome.residual
        if t & (t - 1) and t < t_horizon:
            continue  # checkpoints: t = 1, 2, 4, 8, ... and the horizon
        # -(rho / t) sum M is the average's residual; check-cert reads the average
        passed, check = regret_check(alpha, h, -(rho / t) * m_sum, rho)
        if passed:
            run.certificate = average_certificate(certificates)
            ok, report = certificate_check(run.certificate, alpha, h_run, rho)
            if not ok:
                raise OracleInvariantError(f"average: {report['first_failure']}", report)
            passed, check = regret_check(alpha, h, report["residual"], rho)
            if passed:
                run.outcome = "certified"
                return run
        if t == t_horizon:
            run.reason = f"regret check failed after {t} steps: lambda_min {check:.3e}"

    run.certificate = average_certificate(certificates)
    return run


@dataclass
class ProbeResult:
    alpha: float
    runs: dict[str, AlgorithmRun]

    @property
    def best_cut(self) -> Cut | None:
        cuts = [r.cut for r in self.runs.values() if r.cut is not None]
        if not cuts:
            return None
        return min(cuts, key=lambda c: c.sparsity)

    @property
    def certified(self) -> bool:
        return all(r.outcome == "certified" for r in self.runs.values())

    @property
    def found_cut(self) -> bool:
        return any(r.outcome == "cut" for r in self.runs.values())

    @property
    def lower_bound(self) -> float | None:
        """alpha / 2 when both sides of vertex 0 ran and certified."""
        return self.alpha / 2.0 if self.certified and set(self.runs) == {"in", "out"} else None


def run_both_sides(
    h: DirectedHypergraph,
    alpha: float,
    cfg: SolverConfig | None = None,
    rng: np.random.Generator | None = None,
) -> ProbeResult:
    """Run both sides of vertex 0 at one alpha; a lower bound needs both
    to certify, a cut from either side counts."""
    cfg = cfg or SolverConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    runs = {side: run_algorithm1(h, alpha, side, cfg, rng) for side in ("in", "out")}
    return ProbeResult(alpha, runs)


@dataclass
class SolveResult:
    best_cut: Cut | None
    lower_bound: float | None
    probes: list[ProbeResult]
    alpha_lo: float
    alpha_hi: float
    baseline_cut: Cut | None = None

    @property
    def ratio(self) -> float | None:
        if self.best_cut is None or not self.lower_bound:
            return None
        return float(self.best_cut.sparsity) / self.lower_bound


def _singleton_baseline(h: DirectedHypergraph) -> Cut:
    """Best of the singleton cuts and zero-cut closures.

    A zero out-cut exists iff some vertex's out-closure is proper; checking
    those up front means a sparsity-0 cut is never missed by the bracketed
    search (whose floor assumes positive sparsity).

    The candidates are, for v = 0 .. n-1 in turn, {v}, V - {v} and v's
    out-closure when proper; the first of least sparsity wins.  All 3n are
    scored exactly in one pass, from out-cut weights taken in closed form
    and the closures that span V, and only the winner is built as a Cut.
    Two closure searches from vertex 0 find those closures: where 0's
    closure spans V, v's does exactly when it holds 0, since it then holds
    0's; where 0's is proper, the scan stops at v = 0 on its sparsity 0.
    """
    if h.n < 2:
        raise ValueError("no proper subsets exist")
    single, complement = h.incidence.singleton_out_weights()
    # the vertices whose closure spans V: those whose closure holds 0, when
    # 0's spans V; otherwise none is read, as the scan stops at v = 0
    full = out_closure(reverse(h), {0}) if len(out_closure(h, {0})) == h.n else frozenset()
    total = h.total_weight
    # each candidate's sparsity is num / den over the edge-weight
    # denominator; {v} and V - {v} share den, and a proper closure has num 0
    best_num, best_den, best = 0, 1, None
    for v, w in enumerate(h.vertex_weights):
        den = w * (total - w)
        candidates = [(single[v], den, "single"), (complement[v], den, "complement")]
        if v not in full:
            candidates.append((0, 1, "closure"))
        for num, d, kind in candidates:
            if best is None or num * best_den < best_num * d:
                best_num, best_den, best = num, d, (v, kind)
        if best_num == 0:
            break  # nothing later can be sparser
    v, kind = best
    if kind == "closure":
        return evaluate_cut(h, out_closure(h, {v}))
    return evaluate_cut(h, {v} if kind == "single" else set(range(h.n)) - {v})


def binary_search(
    h: DirectedHypergraph,
    cfg: SolverConfig | None = None,
    rng: np.random.Generator | None = None,
) -> SolveResult:
    """Geometric search over alpha, keeping the best cut seen and the
    largest certified lower bound.

    Probes that find a cut move the upper end down; fully certified probes
    move the lower end up and raise the certified bound; aborted probes move
    the lower end up without certifying anything.
    """
    cfg = cfg or SolverConfig()
    if h.n < 2:
        raise ValueError("solver needs at least two vertices")
    if rng is None:
        rng = np.random.default_rng(0)

    baseline = _singleton_baseline(h)
    best_cut = baseline
    probes: list[ProbeResult] = []
    lower_bound: float | None = None

    positive_w = [float(e.weight) for e in h.edges if e.weight > 0]
    total = float(h.total_weight)
    if cfg.alpha_hi is not None:
        hi = cfg.alpha_hi
    else:
        hi = 4.0 * float(baseline.sparsity)
    if cfg.alpha_lo is not None:
        lo = cfg.alpha_lo
    else:
        lo = 2.0 * min(positive_w) / total**2 if positive_w else 0.0

    if best_cut.sparsity == 0 or hi <= 0 or not positive_w:
        return SolveResult(best_cut, None, [], max(lo, 0.0), max(hi, 0.0), baseline)
    # a huge ratio's square overflows, and the quotient can underflow to 0
    lo = max(min(lo, hi / cfg.search_ratio / cfg.search_ratio), math.ulp(0.0))

    while hi > lo * cfg.search_ratio and len(probes) < cfg.max_probes:
        alpha = math.sqrt(lo * hi)
        if not sys.float_info.min <= lo * hi <= sys.float_info.max:
            alpha = math.sqrt(lo) * math.sqrt(hi)  # the product left the normal range
        probe = run_both_sides(h, alpha, cfg, rng)
        probes.append(probe)
        if probe.found_cut:
            cut = probe.best_cut
            assert cut is not None
            if cut.sparsity < best_cut.sparsity:
                best_cut = cut
            hi = alpha
            if best_cut.sparsity == 0:
                break
        else:
            if probe.lower_bound is not None:
                lower_bound = max(lower_bound or 0.0, probe.lower_bound)
            lo = alpha

    return SolveResult(best_cut, lower_bound, probes, lo, hi, baseline)
