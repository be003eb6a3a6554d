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
from fractions import Fraction
from typing import Any

import numpy as np

from .driver import SolveResult, SolverConfig, mw_state, theoretical_iterations
from .flownet import FlowAssignment
from .hypergraph import (
    Cut,
    DirectedHypergraph,
    degree_scaled,
    reverse,
    serialize_dhg,
    sparsity,
)
from .oracle import DualCertificate, OracleConfig, certificate_check

# mat_K is not called here any more, but perfbench/tracing.py wraps it in
# this module's namespace, so the name stays
from .sdpcore import TriangleId, mat_K, min_eigenvalue

__all__ = [
    "solve_report",
    "dumps_report",
    "verify_report",
    "oracle_config_from_dict",
    "solver_config_from_dict",
]


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _cut_dict(h: DirectedHypergraph, cut: Cut | None) -> dict | None:
    if cut is None:
        return None
    return {
        "vertices": sorted(h.names[v] for v in cut.subset),
        "sparsity": _frac_str(cut.sparsity),
        "sparsity_float": float(cut.sparsity),
        "phi_plus": float(cut.phi_plus),
        "phi_minus": float(cut.phi_minus),
    }


def _oracle_cfg_dict(cfg: OracleConfig) -> dict:
    return {
        "c_ball": cfg.c_ball,
        "cap_c1": cfg.cap_c1,
        "c_A": cfg.c_A,
        "c_A2": cfg.c_A2,
        "c_rho": cfg.c_rho,
        "sigma": cfg.sigma,
        "c_frac": cfg.c_frac,
        "s_viol": cfg.s_viol,
        "c_path": cfg.c_path,
        "mu": cfg.mu,
        "dual_scale": cfg.dual_scale,
        "n_dirs": cfg.n_dirs,
        "rng_seed": cfg.rng_seed,
        "tol_norm": cfg.tol_norm,
    }


def oracle_config_from_dict(d: dict) -> OracleConfig:
    # unknown keys, such as the retired c_D and c_T, are ignored
    known = {k: d[k] for k in _oracle_cfg_dict(OracleConfig()) if k in d}
    return OracleConfig(**known)


def solver_config_from_dict(d: dict) -> SolverConfig:
    oracle = oracle_config_from_dict(d.get("oracle", {}))
    kwargs: dict[str, Any] = {"oracle": oracle}
    for key in ("t_cap", "eta_override", "alpha_lo", "alpha_hi", "search_ratio",
                "side_policy", "max_probes"):
        if key in d:
            kwargs[key] = d[key]
    return SolverConfig(**kwargs)


def _solver_cfg_dict(cfg: SolverConfig) -> dict:
    return {
        "t_cap": cfg.t_cap,
        "eta_override": cfg.eta_override,
        "alpha_lo": cfg.alpha_lo,
        "alpha_hi": cfg.alpha_hi,
        "search_ratio": cfg.search_ratio,
        "side_policy": cfg.side_policy,
        "max_probes": cfg.max_probes,
        "oracle": _oracle_cfg_dict(cfg.oracle),
    }


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
                        "alpha": run.alpha,
                        "rho": run.rho,
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
        "config": dict(_solver_cfg_dict(cfg), seed=seed, mode=mode),
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


def _cert_from_entry(entry: dict) -> DualCertificate:
    triangles = {
        TriangleId.make(int(a), int(b), int(mid)): float(v)
        for a, b, mid, v in entry["f_p"]
    }
    flow = entry.get("flow")
    fa = None
    if flow is not None:
        fa = FlowAssignment(tuple((int(e), int(i), int(j), float(f)) for e, i, j, f in flow))
    return DualCertificate(float(entry["z"]), triangles, fa, 0.0)


def verify_report(doc: dict, h: DirectedHypergraph) -> tuple[bool, str | None]:
    """Re-verify a solve report from its certificates alone.

    Replays each run's multiplicative-weights trajectory, re-running
    certificate_check at every step, re-checks the regret inequality of
    every certified run, and validates the top-level cut and lower-bound
    claims against the transcript.  Returns (ok, first failing bullet or
    None).
    """
    base = serialize_dhg(h)
    if doc.get("instance", {}).get("dhg") != base:
        # expansion-mode reports are solved on the degree-scaled instance
        if doc.get("config", {}).get("mode") == "expansion":
            h = degree_scaled(h)
            if doc.get("instance", {}).get("dhg") != serialize_dhg(h):
                return False, "instance_mismatch"
        else:
            return False, "instance_mismatch"
    cfg = solver_config_from_dict(doc.get("config", {}))
    k = h.k_matrix
    n = h.n

    cut_claim = doc.get("cut")
    if cut_claim is not None:
        name_index = {name: v for v, name in enumerate(h.names)}
        try:
            subset = frozenset(name_index[x] for x in cut_claim["vertices"])
        except KeyError:
            return False, "cut_unknown_vertex"
        if not subset or len(subset) == n:
            return False, "cut_improper"
        actual = sparsity(h, subset)
        if _frac_str(actual) != cut_claim.get("sparsity"):
            return False, "cut_sparsity_mismatch"

    by_run: dict[tuple[int, str], list[dict]] = {}
    for entry in doc.get("certificates", []):
        by_run.setdefault((int(entry["probe"]), str(entry["side"])), []).append(entry)

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
                certified_by_probe.setdefault(int(tr["probe"]), set()).add(str(tr["side"]))
                alpha_by_probe[int(tr["probe"])] = float(tr["alpha"])
        supported = [
            alpha_by_probe[p] / 2.0
            for p, sides in certified_by_probe.items()
            if sides >= {"in", "out"}
        ]
        if not supported or claimed_bound > max(supported) * (1 + 1e-12):
            return False, "lower_bound_unsupported"

    for tr in doc.get("transcript", []):
        key = (int(tr["probe"]), str(tr["side"]))
        entries = sorted(by_run.get(key, []), key=lambda e: int(e["t"]))
        alpha = float(tr["alpha"])
        rho = float(tr["rho"])
        eta = float(tr["eta"])
        side = str(tr["side"])
        h_run = reverse(h) if side == "out" else h
        expected_rho = cfg.oracle.rho(alpha, h)
        if not math.isclose(rho, expected_rho, rel_tol=1e-9):
            return False, "rho_mismatch"
        if [int(e["t"]) for e in entries] != list(range(1, len(entries) + 1)):
            return False, "certificate_sequence_gap"

        m_sum = np.zeros((n, n))
        for entry in entries:
            state, _ = mw_state(m_sum, eta, k, h.vertex_weights)
            cert = _cert_from_entry(entry)
            ok, rep = certificate_check(cert, alpha, state, h_run, rho)
            if not ok:
                return False, str(rep["first_failure"])
            m_sum += -(1.0 / rho) * rep["residual"]

        if tr.get("outcome") == "certified":
            t_theory = theoretical_iterations(alpha, h, cfg.oracle)
            if tr.get("t_theory") != t_theory or len(entries) != t_theory:
                return False, "iteration_count_mismatch"
            check = min_eigenvalue((rho / t_theory) * m_sum + (alpha / 2.0) * k)
            if check < -1e-6 * max(1.0, rho):
                return False, "regret_inequality"
    return True, None
