"""Report serialization and independent certificate re-verification.

The JSON report carries, per run, every dual certificate the oracle
emitted (z, sparse triangle weights, sparse flow values).  That is enough
to replay the whole multiplicative-weights trajectory deterministically, so
the verifier never trusts any matrix from the solver: it rebuilds X step by
step from the certificates themselves and re-checks every bullet plus the
final regret inequality of certified runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields

import numpy as np

from .driver import SolveResult, SolverConfig, mw_state, theoretical_iterations
from .flownet import FlowAssignment
from .hypergraph import (
    Cut,
    DirectedHypergraph,
    degree_scaled,
    evaluate_cuts,
    expansion,
    reverse,
    serialize_dhg,
    sparsity,
)
from .oracle import DualCertificate, OracleConfig, certificate_check

# mat_K and sparsity are not called here any more, but perfbench/tracing.py
# wraps them in this module's namespace, so the names stay
from .sdpcore import TriangleId, mat_K, min_eigenvalue

__all__ = [
    "solve_report",
    "dumps_report",
    "expansion_estimate",
    "verify_report",
    "solver_config_from_dict",
]


def _cut_dict(h: DirectedHypergraph, cut: Cut | None) -> dict | None:
    if cut is None:
        return None
    return {"vertices": sorted(h.names[v] for v in cut.subset), **_cut_values(cut)}


def _cut_values(cut: Cut) -> dict:
    return {
        "sparsity": str(cut.sparsity),
        "sparsity_float": float(cut.sparsity),
        "phi_plus": float(cut.phi_plus),
        "phi_minus": float(cut.phi_minus),
    }


def expansion_estimate(h: DirectedHypergraph, cut_subset) -> dict:
    """Exact expansion of the light side of a cut, by weighted degree;
    where both sides weigh the same, their expansions are equal."""
    deg = h.incidence.degrees
    side = set(cut_subset)
    if 2 * deg[list(side)].sum() > deg.sum():
        side = set(range(h.n)) - side
    try:
        phi_p, phi_m, phi = expansion(h, side)
    except ValueError:  # the light side has weighted degree 0
        return {}
    return {
        "vertices": sorted(h.names[v] for v in side),
        "phi": str(phi),
        "phi_plus": str(phi_p),
        "phi_minus": str(phi_m),
    }


def _known_fields(cls, d: dict) -> dict:
    # unknown keys, such as the retired c_D and c_T or the report's seed
    # and mode, are ignored
    return {f.name: d[f.name] for f in fields(cls) if f.name in d}


def solver_config_from_dict(d: dict) -> SolverConfig:
    known = _known_fields(SolverConfig, d)
    known["oracle"] = OracleConfig(**_known_fields(OracleConfig, d.get("oracle", {})))
    return SolverConfig(**known)


def _triangles_list(weights: dict[TriangleId, float]) -> list[list]:
    return [
        [tri.a, tri.b, tri.mid, val]
        for tri, val in sorted(weights.items(), key=lambda kv: (kv[0].a, kv[0].b, kv[0].mid))
    ]


def _flow_list(fa: FlowAssignment | None) -> list[list] | None:
    if fa is None:
        return None
    return [list(item) for item in sorted(fa.values)]


def solve_report(
    h: DirectedHypergraph,
    cfg: SolverConfig,
    result: SolveResult,
    seed: int,
    mode: str = "sparsity",
    extra: dict | None = None,
) -> dict:
    """Assemble the JSON-serializable report for a solve run."""
    transcript = []
    certificates = []
    for p_idx, probe in enumerate(result.probes):
        for side, run in probe.runs.items():
            transcript.append(
                {
                    "probe": p_idx,
                    "alpha": run.alpha,
                    "side": side,
                    "outcome": run.outcome,
                    "reason": run.reason,
                    "iterations": run.iterations,
                    "t_theory": run.t_theory,
                    "t_horizon": run.t_horizon,
                    "eta": run.eta,
                    "rho": run.rho,
                    "mw_check": run.mw_check,
                    "cut": _cut_dict(h, run.cut),
                    "records": [
                        [r.t, r.case, r.width, r.log_k_dot_w]
                        for r in run.records
                    ],
                }
            )
            for t, cert in enumerate(run.certificates, start=1):
                certificates.append(
                    {
                        "probe": p_idx,
                        "side": side,
                        "t": t,
                        "z": cert.z,
                        "f_p": _triangles_list(cert.triangle_weights),
                        "flow": _flow_list(cert.flow),
                    }
                )

    doc = {
        "instance": {
            "dhg": serialize_dhg(h),
            "n": h.n,
            "m": h.m,
            "r": h.r,
            "kappa": h.kappa,
            "total_weight": h.total_weight,
        },
        "config": dict(asdict(cfg), seed=seed, mode=mode),
        "outcome": "cut" if result.best_cut is not None else "no-cut",
        "cut": _cut_dict(h, result.best_cut),
        "sparsity": float(result.best_cut.sparsity) if result.best_cut else None,
        "lower_bound": result.lower_bound,
        "approx_ratio": result.ratio,
        "alpha_range": [result.alpha_lo, result.alpha_hi],
        "transcript": transcript,
        "certificates": certificates,
    }
    if extra:
        doc.update(extra)
    return doc


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class _Malformed(ValueError):
    """A transcript row or certificate entry that cannot be read."""


def _finite(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{x} is not finite")
    return x


def _run_fields(d: dict, *numbers: str) -> tuple:
    """(probe, side, *numbers) of a transcript row or certificate entry."""
    try:
        if d["side"] not in ("in", "out"):
            raise ValueError(f"unknown side {d['side']!r}")
        return (int(d["probe"]), d["side"], *(_finite(d[key]) for key in numbers))
    except (KeyError, TypeError, ValueError) as exc:
        raise _Malformed(str(exc)) from None


def _cert_from_entry(entry: dict) -> DualCertificate:
    try:
        # TriangleId.make raises ValueError on a repeated vertex
        triangles = {
            TriangleId.make(int(a), int(b), int(mid)): _finite(v)
            for a, b, mid, v in entry["f_p"]
        }
        flow = entry.get("flow")
        fa = None
        if flow is not None:
            fa = FlowAssignment(tuple((int(e), int(i), int(j), _finite(f)) for e, i, j, f in flow))
        return DualCertificate(_finite(entry["z"]), triangles, fa)
    except (KeyError, TypeError, ValueError) as exc:
        raise _Malformed(str(exc)) from None


# the JSON type of each top-level section that check-cert reads; an absent
# section reads as empty
_SECTIONS = {"instance": dict, "config": dict, "certificates": list, "transcript": list}


def _well_formed(doc) -> bool:
    """Whether ``doc`` has the top-level shape of a solve report."""
    if not isinstance(doc, dict):
        return False
    if any(not isinstance(doc.get(key, kind()), kind) for key, kind in _SECTIONS.items()):
        return False
    rows = [*doc.get("certificates", []), *doc.get("transcript", [])]
    if not all(isinstance(row, dict) for row in rows):
        return False
    # the names themselves are looked up in _check_cuts
    cuts = [doc.get("cut"), *(tr.get("cut") for tr in doc.get("transcript", []))]
    if not all(
        cut is None or (isinstance(cut, dict) and isinstance(cut.get("vertices"), list))
        for cut in cuts
    ):
        return False
    bound = doc.get("lower_bound")
    return bound is None or (isinstance(bound, (int, float)) and not isinstance(bound, bool))


def verify_report(doc: dict, h: DirectedHypergraph) -> tuple[bool, str | None]:
    """Re-verify a solve report from its certificates alone.

    Replays each run's multiplicative-weights trajectory, re-running
    certificate_check at every step, re-checks the regret inequality of
    every certified run, and validates the top-level cut and lower-bound
    claims against the transcript.  Returns (ok, first failing bullet or
    None).  A report whose sections or config cannot be read fails as
    ``report_malformed``, an unreadable entry as ``certificate_malformed``.
    """
    if not _well_formed(doc):
        return False, "report_malformed"
    try:
        return _verify(doc, h)
    except _Malformed:
        return False, "certificate_malformed"


def _check_cuts(doc: dict, h: DirectedHypergraph, given: DirectedHypergraph) -> str | None:
    """The first failing claim about a cut, or None.

    Every reported cut, the top-level one and each run's, must be a proper
    subset whose sparsity (exact and as a float) and expansions match the
    instance ``h`` the report was solved on; each distinct subset is
    evaluated once.  The top-level ``sparsity`` must be the best cut's, the
    ``outcome`` must say whether there is a cut, ``approx_ratio`` must be
    the sparsity over the lower bound, and an expansion-mode report's
    ``expansion`` block must be recomputed from the ``given`` instance.
    """
    top = doc.get("cut")
    claims = [top, *(tr.get("cut") for tr in doc.get("transcript", []))]
    claims = [claim for claim in claims if claim is not None]
    name_index = {name: v for v, name in enumerate(h.names)}
    by_names: dict[tuple, frozenset[int]] = {}
    subsets = []
    for claim in claims:
        try:
            names = tuple(claim["vertices"])
            if names not in by_names:
                by_names[names] = frozenset(map(name_index.__getitem__, names))
        except (KeyError, TypeError):  # TypeError: an unhashable name
            return "cut_unknown_vertex"
        subset = by_names[names]
        if not subset or len(subset) == h.n:
            return "cut_improper"
        subsets.append(subset)
    distinct = list(dict.fromkeys(subsets))
    values = {s: _cut_values(cut) for s, cut in zip(distinct, evaluate_cuts(h, distinct))}
    for claim, subset in zip(claims, subsets):
        for key, value in values[subset].items():
            if claim.get(key) != value:
                return f"cut_{key}_mismatch"

    best = values[subsets[0]]["sparsity_float"] if top is not None else None
    if doc.get("sparsity") != best:
        return "sparsity_mismatch"
    if doc.get("outcome") != ("cut" if top is not None else "no-cut"):
        return "outcome_mismatch"
    bound = doc.get("lower_bound")
    if doc.get("approx_ratio") != (best / bound if top is not None and bound else None):
        return "approx_ratio_mismatch"
    if doc.get("config", {}).get("mode") == "expansion":
        expected = expansion_estimate(given, subsets[0]) if top is not None else None
        if doc.get("expansion") != expected:
            return "expansion_mismatch"
    return None


_CUT_CASES = ("1A", "2A")
_DUAL_CASES = ("1B", "2B", "2C")


def _close(claim, value: float, abs_tol: float = 0.0) -> bool:
    """Whether a reported number matches the replay's: the replay sums
    certificate entries in the report's order, so it may differ from the
    solver in the last bits."""
    if not isinstance(claim, (int, float)) or isinstance(claim, bool):
        return False
    return math.isclose(claim, value, rel_tol=1e-9, abs_tol=abs_tol)


def _replay_run(
    tr: dict, entries: list[tuple[float, dict]], h: DirectedHypergraph, cfg: SolverConfig
) -> str | None:
    """Replay one run's certificates, as (t, entry) sorted by t, and check
    its transcript row; returns the first failing check, or None.

    The row's numbers must follow from the config (rho, t_theory, t_horizon,
    eta), its records must number 1..iterations with one dual record per
    certificate and a cut record only last, and only in a run whose outcome
    is "cut"; each dual record's width and log(K . W) must be the replay's.
    mw_check must be the replayed lambda_min of a run that reached t_theory,
    and null otherwise.
    """
    _, side, alpha, rho, eta = _run_fields(tr, "alpha", "rho", "eta")
    records = tr.get("records")
    if not alpha > 0 or not isinstance(records, list):
        raise _Malformed("a run needs a positive alpha and a list of records")
    if not all(isinstance(r, list) and len(r) == 4 for r in records):
        raise _Malformed("a record is [t, case, width, log_k_dot_w]")
    if not math.isclose(rho, cfg.oracle.rho(alpha, h), rel_tol=1e-9):
        return "rho_mismatch"
    t_theory = theoretical_iterations(alpha, h, cfg.oracle)
    t_horizon = min(t_theory, cfg.t_cap)
    if tr.get("t_theory") != t_theory:
        return "t_theory_mismatch"
    if tr.get("t_horizon") != t_horizon:
        return "t_horizon_mismatch"
    if not _close(eta, math.sqrt(math.log(h.n) / t_horizon)):
        return "eta_mismatch"
    if [t for t, _ in entries] != list(range(1, len(entries) + 1)):
        return "certificate_sequence_gap"
    if [r[0] for r in records] != list(range(1, len(records) + 1)):
        return "record_sequence_gap"
    if tr.get("iterations") != len(records) or len(records) > t_horizon:
        return "iterations_mismatch"
    outcome = tr.get("outcome")
    is_cut = outcome == "cut"
    if outcome not in ("cut", "certified", "aborted") or is_cut != (tr.get("cut") is not None):
        return "run_outcome_mismatch"
    duals = records[:-1] if is_cut else records
    if is_cut and (not records or records[-1][1] not in _CUT_CASES or records[-1][2] != 0.0):
        return "record_case_mismatch"
    if len(duals) != len(entries) or any(r[1] not in _DUAL_CASES for r in duals):
        return "record_case_mismatch"

    h_run = reverse(h) if side == "out" else h
    m_sum = np.zeros((h.n, h.n))
    for (_, case, width, log_kdw), (_, entry) in zip(duals, entries):
        state, replayed_log_kdw = mw_state(m_sum, eta, h.vertex_weights)
        cert = _cert_from_entry(entry)
        if (case == "2C") != (cert.flow is None):
            return "record_case_mismatch"
        ok, rep = certificate_check(cert, alpha, state, h_run, rho)
        if not ok:
            return str(rep["first_failure"])
        if not _close(width, rep["width"]):
            return "record_width_mismatch"
        if not _close(log_kdw, replayed_log_kdw, abs_tol=1e-9):
            return "record_log_k_dot_w_mismatch"
        m_sum += -(1.0 / rho) * rep["residual"]

    reached = len(entries) == t_theory
    if not reached:
        if tr.get("mw_check") is not None:
            return "mw_check_mismatch"
        return "iteration_count_mismatch" if outcome == "certified" else None
    check = min_eigenvalue((rho / t_theory) * m_sum + (alpha / 2.0) * h.k_matrix)
    if not _close(tr.get("mw_check"), check, abs_tol=1e-9 * max(1.0, rho)):
        return "mw_check_mismatch"
    if outcome == "certified" and check < -1e-6 * max(1.0, rho):
        return "regret_inequality"
    return None


def _verify(doc: dict, h: DirectedHypergraph) -> tuple[bool, str | None]:
    given = h
    base = serialize_dhg(h)
    if doc.get("instance", {}).get("dhg") != base:
        # expansion-mode reports are solved on the degree-scaled instance
        if doc.get("config", {}).get("mode") == "expansion":
            h = degree_scaled(h)
            if doc.get("instance", {}).get("dhg") != serialize_dhg(h):
                return False, "instance_mismatch"
        else:
            return False, "instance_mismatch"
    try:
        cfg = solver_config_from_dict(doc.get("config", {}))
    except (TypeError, ValueError):
        return False, "report_malformed"

    failing = _check_cuts(doc, h, given)
    if failing is not None:
        return False, failing

    by_run: dict[tuple[int, str], list[tuple[float, dict]]] = {}
    for entry in doc.get("certificates", []):
        probe, side, t = _run_fields(entry, "t")
        by_run.setdefault((probe, side), []).append((t, entry))
    # the replay below walks the transcript, so a certificate of a run the
    # transcript does not list would never be checked
    if not by_run.keys() <= {_run_fields(tr) for tr in doc.get("transcript", [])}:
        return False, "certificate_orphan"

    # the lower bound must be backed by a probe on which every side of the
    # configured policy certified
    claimed_bound = doc.get("lower_bound")
    if claimed_bound is not None:
        if cfg.side_policy != "both":
            return False, "lower_bound_single_side"
        certified_by_probe: dict[int, set[str]] = {}
        alpha_by_probe: dict[int, float] = {}
        for tr in doc.get("transcript", []):
            if tr.get("outcome") == "certified":
                probe, side, alpha = _run_fields(tr, "alpha")
                certified_by_probe.setdefault(probe, set()).add(side)
                alpha_by_probe[probe] = alpha
        supported = [
            alpha_by_probe[p] / 2.0
            for p, sides in certified_by_probe.items()
            if sides >= {"in", "out"}
        ]
        if not supported or claimed_bound > max(supported) * (1 + 1e-12):
            return False, "lower_bound_unsupported"

    for tr in doc.get("transcript", []):
        entries = sorted(by_run.get(_run_fields(tr), []), key=lambda te: te[0])
        failing = _replay_run(tr, entries, h, cfg)
        if failing is not None:
            return False, failing
    return True, None
