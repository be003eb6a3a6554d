"""Report serialization and independent certificate re-verification.

The JSON report holds only what check-cert re-derives: the instance, the
config, every cut, and per run its step count and the average of its dual
certificates (z, sparse triangle weights, sparse flow values); check-cert
rejects any other key, and reads each certificate's lists straight into
arrays: JSON integers, finite JSON numbers, no key twice.  A run's rho,
horizon and step size are re-derived by the driver's run_numbers.  The
bound alpha / 2 rests on the average alone: a certified run's must pass
certificate_check and the driver's regret_check,
lambda_min((alpha / 2) K - R-bar) >= -1e-6 rho with R-bar its residual, at
whatever step count the run stopped.  The verifier trusts no matrix from
the solver and replays nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from itertools import chain
from operator import eq, lt

import numpy as np

from .driver import SolveResult, SolverConfig, mw_state, regret_check, run_numbers
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

# mat_K, min_eigenvalue, mw_state and sparsity are not called here any more, but
# perfbench/tracing.py wraps them in this module's namespace, so the names stay
from .sdpcore import mat_K, min_eigenvalue

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
    # the report's seed and mode are not fields; _well_formed rejects any
    # other unknown key
    return {f.name: d[f.name] for f in fields(cls) if f.name in d}


def solver_config_from_dict(d: dict) -> SolverConfig:
    known = _known_fields(SolverConfig, d)
    known["oracle"] = OracleConfig(**_known_fields(OracleConfig, d.get("oracle", {})))
    return SolverConfig(**known)


def _rows(keys: np.ndarray, values: np.ndarray) -> list[list]:
    """[*key, value] per row of the (k, 3) ``keys``, sorted by key."""
    order = np.lexsort(keys.T[::-1])
    return [[*key, value] for key, value in zip(keys[order].tolist(), values[order].tolist())]


REPORT_VERSION = 4  # the layout solve_report writes, and the only one check-cert reads


def _instance(h: DirectedHypergraph) -> dict:
    """The report's ``instance`` block, which check-cert compares whole."""
    return {
        "dhg": serialize_dhg(h),
        "n": h.n,
        "m": h.m,
        "r": h.r,
        "kappa": h.kappa,
        "total_weight": h.total_weight,
    }


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
                    "t_horizon": run.t_horizon,
                    "eta": run.eta,
                    "rho": run.rho,
                    "cut": _cut_dict(h, run.cut),
                }
            )
            cert = run.certificate
            if cert is not None:
                certificates.append(
                    {
                        "probe": p_idx,
                        "side": side,
                        "z": cert.z,
                        "f_p": _rows(cert.triangles, cert.weights),
                        # an empty flow prints as null
                        "flow": _rows(cert.flow.keys, cert.flow.values) or None,
                    }
                )

    doc = {
        "report_version": REPORT_VERSION,
        "instance": _instance(h),
        "config": dict(asdict(cfg), seed=seed, mode=mode),
        "outcome": "cut" if result.best_cut is not None else "no-cut",
        "cut": _cut_dict(h, result.best_cut),
        "sparsity": float(result.best_cut.sparsity) if result.best_cut else None,
        "lower_bound": result.lower_bound,
        "approx_ratio": result.ratio,
        "transcript": transcript,
        "certificates": certificates,
    }
    if extra:
        doc.update(extra)
    return doc


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


_NUMBER = frozenset((int, float))  # the types of a JSON number, bool excluded


class _Malformed(ValueError):
    """A transcript row or certificate entry that cannot be read."""


def _number(x) -> float:
    """A finite JSON number (not a bool) as a float."""
    if type(x) not in (int, float):
        raise ValueError(f"{x!r} is not a number")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{x} is not finite")
    return x


def _run_fields(d: dict, *numbers: str) -> tuple:
    """(probe, side, *numbers) of a transcript row or certificate entry."""
    try:
        if d["side"] not in ("in", "out"):
            raise ValueError(f"unknown side {d['side']!r}")
        if type(d["probe"]) is not int:
            raise ValueError(f"probe {d['probe']!r} is not an integer")
        return (d["probe"], d["side"], *(_number(d[key]) for key in numbers))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _Malformed(str(exc)) from None


def _columns(rows) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """The integer columns and the number column of a JSON list of
    [int, int, int, number] rows with no integers twice, checked in Python."""
    if not isinstance(rows, list):
        raise ValueError("certificate rows must be a list")
    if not rows:
        return ((), (), ()), ()
    *ints, values = zip(*rows, strict=True)
    if len(ints) != 3:
        raise ValueError("certificate rows must have four entries")
    if set(map(type, chain(*ints))) - {int} or set(map(type, values)) - _NUMBER:
        raise ValueError("certificate rows must be [int, int, int, number]")
    # math.isfinite raises OverflowError on an integer beyond every float
    if not all(map(math.isfinite, values)):
        raise ValueError("certificate values must be finite")
    if len(rows) > 1 and len(set(zip(*ints))) != len(rows):
        raise ValueError("a certificate key is repeated")
    return ints, values


def _cert_from_entry(entry: dict) -> DualCertificate:
    """The certificate an entry prints, as arrays: triangles [a, b, mid, f_p]
    with a < b and mid neither, and flow entries [e, i, j, f] (null: none)."""
    try:
        (a, b, mid), weights = _columns(entry["f_p"])
        if not all(map(lt, a, b)) or any(map(eq, a, mid)) or any(map(eq, b, mid)):
            raise ValueError("a triangle needs ends a < b and a third vertex")
        flow = entry.get("flow")
        (e, i, j), values = _columns([] if flow is None else flow)
        # one array for the integers of both lists and one for their numbers
        keys = np.array((a + e, b + i, mid + j), dtype=np.int64).T
        numbers = np.array(weights + values, dtype=float)
        k = len(a)
        fa = FlowAssignment(keys[k:], numbers[k:])
        return DualCertificate(_number(entry["z"]), keys[:k], numbers[:k], fa)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _Malformed(str(exc)) from None


# the JSON type of each top-level section that check-cert reads; an absent
# section reads as empty
_SECTIONS = {"instance": dict, "config": dict, "certificates": list, "transcript": list}
# the keys a report may have, by place; the instance block is compared whole
_KEYS = {
    "top": {*_SECTIONS, "report_version", "outcome", "cut", "sparsity", "lower_bound",
            "approx_ratio", "mode", "expansion"},
    "config": {*(f.name for f in fields(SolverConfig)), "seed", "mode"},
    "oracle": {f.name for f in fields(OracleConfig)},
    "row": {"probe", "alpha", "side", "outcome", "reason", "iterations", "t_horizon", "eta",
            "rho", "cut"},
    "certificate": {"probe", "side", "z", "f_p", "flow"},
    "cut": {"vertices", "sparsity", "sparsity_float", "phi_plus", "phi_minus"},
}


def _well_formed(doc: dict) -> bool:
    """Whether ``doc`` has the shape of a solve report, with no key that
    check-cert does not know."""
    if any(not isinstance(doc.get(key, kind()), kind) for key, kind in _SECTIONS.items()):
        return False
    config = doc.get("config", {})
    oracle = config.get("oracle", {})
    if not (doc.keys() <= _KEYS["top"] and config.keys() <= _KEYS["config"]):
        return False
    if not (isinstance(oracle, dict) and oracle.keys() <= _KEYS["oracle"]):
        return False
    rows = doc.get("transcript", [])
    entries = doc.get("certificates", [])
    if not all(isinstance(row, dict) and row.keys() <= _KEYS["row"] for row in rows):
        return False
    if not all(isinstance(e, dict) and e.keys() <= _KEYS["certificate"] for e in entries):
        return False
    # the names themselves are looked up in _check_cuts
    cuts = [doc.get("cut"), *(tr.get("cut") for tr in rows)]
    if not all(
        cut is None
        or (isinstance(cut, dict) and cut.keys() <= _KEYS["cut"]
            and isinstance(cut.get("vertices"), list))
        for cut in cuts
    ):
        return False
    if config.get("mode", "sparsity") not in ("sparsity", "expansion"):
        return False
    bound = doc.get("lower_bound")
    return bound is None or (isinstance(bound, (int, float)) and not isinstance(bound, bool))


def verify_report(doc: dict, h: DirectedHypergraph) -> tuple[bool, str | None]:
    """Re-verify a solve report from its certificates alone.

    Checks each run's row and its averaged certificate, and the regret
    inequality of every certified run, and validates the top-level cut and
    lower-bound claims against the transcript.  Returns (ok, first failing
    bullet or None).  Another layout fails as ``report_version_mismatch``, a
    report whose sections or config cannot be read or that has a key no
    report has as ``report_malformed``, and an unreadable entry as
    ``certificate_malformed``.
    """
    if not isinstance(doc, dict):
        return False, "report_malformed"
    if doc.get("report_version") != REPORT_VERSION:
        return False, "report_version_mismatch"
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
    the sparsity over the lower bound, a top-level ``mode`` the config's,
    and only an expansion-mode report has an ``expansion`` block, the one
    recomputed from the ``given`` instance.
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
    mode = doc.get("config", {}).get("mode")
    if "mode" in doc and doc["mode"] != mode:
        return "mode_mismatch"
    expected = None
    if mode == "expansion" and top is not None:
        expected = expansion_estimate(given, subsets[0])
    if doc.get("expansion") != expected:
        return "expansion_mismatch"
    return None


def _check_run(
    tr: dict, run: tuple, entries: list[dict], h: DirectedHypergraph, cfg: SolverConfig
) -> str | None:
    """Check one transcript row, whose ``_run_fields`` are ``run``, and its
    certificate entries; returns the first failing check, or None.

    The row's numbers must follow from the config (rho, t_horizon, eta);
    ``iterations`` is at most t_horizon, and a run whose outcome is "cut"
    ends on its one cut step.  A run with dual steps has exactly one
    certificate, the average of its steps', which must pass
    certificate_check.  A certified run needs one that also passes
    regret_check, at whatever step count the run stopped.
    """
    _, side, alpha, rho, eta = run
    steps = tr.get("iterations")
    if not alpha > 0 or type(steps) is not int or steps < 0:
        raise _Malformed("a run needs a positive alpha and a non-negative iteration count")
    try:
        want_rho, t_horizon, want_eta = run_numbers(alpha, h, cfg)
    except ValueError:  # rho(alpha) or its inverse is inf: no run has it
        return "rho_mismatch"
    if not math.isclose(rho, want_rho, rel_tol=1e-9):
        return "rho_mismatch"
    if tr.get("t_horizon") != t_horizon:
        return "t_horizon_mismatch"
    if not math.isclose(eta, want_eta, rel_tol=1e-9):
        return "eta_mismatch"
    outcome = tr.get("outcome")
    is_cut = outcome == "cut"
    if steps > t_horizon or (is_cut and steps == 0):
        return "iterations_mismatch"
    if outcome not in ("cut", "certified", "aborted") or is_cut != (tr.get("cut") is not None):
        return "run_outcome_mismatch"
    duals = steps - is_cut
    if len(entries) != (duals > 0):
        return "certificate_count_mismatch"
    if entries:
        cert = _cert_from_entry(entries[0])
        ok, rep = certificate_check(cert, alpha, reverse(h) if side == "out" else h, rho)
        if not ok:
            return str(rep["first_failure"])
    if outcome == "certified":
        if not entries or not regret_check(alpha, h, rep["residual"], rho)[0]:
            return "regret_inequality"
    return None


def _verify(doc: dict, h: DirectedHypergraph) -> tuple[bool, str | None]:
    given = h
    if doc.get("config", {}).get("mode") == "expansion":
        # expansion-mode reports are solved on the degree-scaled instance
        try:
            h = degree_scaled(h)
        except ValueError:  # every degree is 0, so solve rejects the instance
            return False, "instance_mismatch"
    if doc.get("instance") != _instance(h):
        return False, "instance_mismatch"
    try:
        cfg = solver_config_from_dict(doc.get("config", {}))
    except (TypeError, ValueError):
        return False, "report_malformed"

    failing = _check_cuts(doc, h, given)
    if failing is not None:
        return False, failing

    rows = [(tr, _run_fields(tr, "alpha", "rho", "eta")) for tr in doc.get("transcript", [])]
    by_run: dict[tuple[int, str], list[dict]] = {}
    for entry in doc.get("certificates", []):
        by_run.setdefault(_run_fields(entry), []).append(entry)
    # the checks below walk the transcript, so a certificate of a run the
    # transcript does not list would never be checked
    if not by_run.keys() <= {run[:2] for _, run in rows}:
        return False, "certificate_orphan"

    # the lower bound must be backed by a probe on which both sides certified
    claimed_bound = doc.get("lower_bound")
    if claimed_bound is not None:
        certified_by_probe: dict[int, set[str]] = {}
        alpha_by_probe: dict[int, float] = {}
        for tr, (probe, side, alpha, _, _) in rows:
            if tr.get("outcome") == "certified":
                certified_by_probe.setdefault(probe, set()).add(side)
                alpha_by_probe[probe] = alpha
        supported = [
            alpha_by_probe[p] / 2.0
            for p, sides in certified_by_probe.items()
            if sides >= {"in", "out"}
        ]
        if not supported or claimed_bound > max(supported) * (1 + 1e-12):
            return False, "lower_bound_unsupported"

    for tr, run in rows:
        failing = _check_run(tr, run, by_run.get(run[:2], []), h, cfg)
        if failing is not None:
            return False, failing
    return True, None
