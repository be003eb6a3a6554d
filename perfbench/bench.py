"""Workloads, output checks and count fingerprints of the benchmark.

Every workload goes through the public API the CLI uses: a solve
(``driver.binary_search`` or ``driver.run_both_sides``), then
``report.solve_report`` and ``report.dumps_report`` (what
``hyperspars solve --json`` costs), then ``json.loads`` and
``report.verify_report`` (what ``hyperspars check-cert`` costs).

Importing this module imports numpy, so the caller pins the BLAS thread
count in the environment first.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import hyperspars
from hyperspars import _core, driver, hypergraph, reference, report
from hyperspars.driver import SolveResult, SolverConfig
from hyperspars.oracle import OracleConfig

__all__ = [
    "INSTANCES", "Setup", "Op", "setups", "run_op", "check_op", "fingerprint",
    "cut_vs_baseline", "gap", "provenance",
]

# instances per run: the expander-like instances differ in how much work
# they take, so a run averages over three; the unit-cycle variants do not
INSTANCES = {"search": 3, "dual-loop": 3, "certify": 1}

# certify: the 3-vertex directed unit cycle, optimum 1/2 before scaling
CYCLE_ALPHA_LO = 0.0025
CYCLE_ALPHA_HI = 0.5
CERTIFY_C_RHO = 4.0


@dataclass(frozen=True)
class Setup:
    """One workload's prepared input plus its reference values."""

    workload: str
    seed: int
    h: hypergraph.DirectedHypergraph
    cfg: SolverConfig
    alpha: float | None = None  # fixed probe (dual-loop); None runs the search
    optimum: Fraction | None = None  # brute-force optimum


@dataclass
class Op:
    """One solve + report + verify, with its timings and outputs."""

    result: SolveResult
    doc: dict
    text: str
    verified: tuple[bool, str | None]
    solve_s: float
    verify_s: float


def _expander(seed: int, n: int) -> hypergraph.DirectedHypergraph:
    return reference.generate(
        reference.GeneratorSpec(n=n, m=2 * n, kappa=2, model="expander-like", seed=seed)
    )


def _unit_cycle(seed: int) -> tuple[hypergraph.DirectedHypergraph, int]:
    """The 3-vertex directed cycle with seed-chosen names, orientation and a
    power-of-two weight scale.  Every choice is a symmetry of the problem
    (powers of two rescale floating point exactly), so the work is the same
    for every seed while the input text differs."""
    rnd = random.Random(seed)
    names = rnd.sample("abcdefghjkmnpqrstuvwxyz", 3)
    if rnd.random() < 0.5:
        names.reverse()
    scale = 2 ** rnd.randrange(5)
    lines = ["dhg 3 3"] + [f"v {x} 1" for x in names]
    lines += [f"e {scale} T {names[k]} H {names[(k + 1) % 3]}" for k in range(3)]
    return hypergraph.parse_dhg("\n".join(lines) + "\n"), scale


def setups(workload: str, seed: int, tiny: bool = False) -> list[Setup]:
    """The run's instances, seeded ``k * seed + i`` for ``k`` instances."""
    if workload not in INSTANCES:
        raise ValueError(f"unknown workload {workload!r}")
    k = INSTANCES[workload]
    return [_setup(workload, k * seed + i, tiny) for i in range(k)]


def _setup(workload: str, seed: int, tiny: bool) -> Setup:
    """Instance build plus reference values; ``tiny`` shrinks the work
    (n=16, t_cap=5, c_rho=1) for self-tests and warm-up."""
    if workload == "search":
        h = _expander(seed, 16 if tiny else 128)
        return Setup(workload, seed, h, SolverConfig(max_probes=1 if tiny else 48))
    if workload == "dual-loop":
        h = _expander(seed, 16 if tiny else 128)
        base = driver.binary_search(h, SolverConfig(max_probes=0)).best_cut.sparsity
        cfg = SolverConfig(t_cap=5 if tiny else 100)
        return Setup(workload, seed, h, cfg, alpha=1e-6 * float(base))
    h, scale = _unit_cycle(seed)
    _, optimum = reference.brute_force_sparsest(h)
    # the iteration count grows as c_rho^2: c_rho=1 keeps the same three
    # probes with 2 x 251 instead of 2 x 4012 certified iterations
    cfg = SolverConfig(
        alpha_lo=CYCLE_ALPHA_LO * scale,
        alpha_hi=CYCLE_ALPHA_HI * scale,
        search_ratio=2.0,
        oracle=OracleConfig(c_rho=1.0 if tiny else CERTIFY_C_RHO),
    )
    return Setup(workload, seed, h, cfg, optimum=optimum)


def run_op(s: Setup, span=None, min_verify_s: float = 0.0) -> Op:
    """Solve, report and serialize once, then parse and verify until
    ``min_verify_s`` is spent (at least once; the median counts).
    ``span(name, layer)`` opens a trace span around each step when given."""
    span = span or (lambda name, layer: nullcontext())
    rng = np.random.default_rng(s.seed)
    t0 = time.perf_counter()
    with span("solve", "harness"):
        with span("driver.solve", "driver"):
            if s.alpha is None:
                result = driver.binary_search(s.h, s.cfg, rng)
            else:
                probe = driver.run_both_sides(s.h, s.alpha, s.cfg, rng)
                bound = s.alpha / 2.0 if probe.certified else None
                result = SolveResult(probe.best_cut, bound, [probe], s.alpha, s.alpha)
        with span("report.build", "report"):
            doc = report.solve_report(s.h, s.cfg, result, s.seed)
        with span("report.dumps", "report"):
            text = report.dumps_report(doc)
    solve_s = time.perf_counter() - t0
    verify_s = []
    while not verify_s or sum(verify_s) < min_verify_s:
        t1 = time.perf_counter()
        with span("verify", "harness"):
            with span("report.loads", "report"):
                parsed = json.loads(text)
            with span("report.verify", "report"):
                verified = report.verify_report(parsed, s.h)
        verify_s.append(time.perf_counter() - t1)
    return Op(result, doc, text, verified, solve_s, statistics.median(verify_s))


def _reported_cuts(doc: dict):
    if doc.get("cut") is not None:
        yield "cut", doc["cut"]
    for tr in doc["transcript"]:
        if tr.get("cut") is not None:
            yield f"probe {tr['probe']} side {tr['side']} cut", tr["cut"]


def check_op(s: Setup, op: Op) -> list[str]:
    """Every failed output check, by name; empty when the op is correct."""
    failures = []
    ok, failing = op.verified
    if not ok:
        failures.append(f"verify_report rejected the report: {failing}")
    index = {name: v for v, name in enumerate(s.h.names)}
    for where, cut in _reported_cuts(op.doc):
        subset = frozenset(index[x] for x in cut["vertices"])
        exact = hypergraph.sparsity(s.h, subset)
        if Fraction(cut["sparsity"]) != exact:
            failures.append(f"{where}: sparsity {cut['sparsity']} != exact {exact}")
    res = op.result
    if s.workload == "search":
        if res.best_cut is None or res.best_cut.sparsity > res.baseline_cut.sparsity:
            failures.append("search: no cut at or below the baseline")
    if s.workload == "dual-loop":
        for side, run in res.probes[0].runs.items():
            cases = {r.case for r in run.records}
            if run.iterations != s.cfg.t_cap or cases != {"2B"}:
                failures.append(
                    f"dual-loop side {side}: {run.iterations} iterations, cases {sorted(cases)}"
                )
    if s.workload == "certify":
        if res.lower_bound is None:
            failures.append("certify: no certified lower bound")
        elif Fraction(res.lower_bound) > s.optimum:
            failures.append(f"certify: bound {res.lower_bound} above optimum {s.optimum}")
        if res.best_cut is None:
            failures.append("certify: no cut")
    return failures


def fingerprint(op: Op) -> dict:
    """Counts read from the outputs; identical on every run of one seed."""
    runs = [run for probe in op.result.probes for run in probe.runs.values()]
    cases = Counter(r.case for run in runs for r in run.records)
    best = op.result.best_cut
    return {
        "probes": len(op.result.probes),
        "iterations": sum(run.iterations for run in runs),
        "cases": dict(sorted(cases.items())),
        "certificates": len(op.doc["certificates"]),
        "report_bytes": len(op.text.encode()),
        "report_sha256": hashlib.sha256(op.text.encode()).hexdigest(),
        "best_cut": None if best is None else str(best.sparsity),
        "lower_bound": op.result.lower_bound,
    }


def cut_vs_baseline(op: Op) -> float | None:
    best, base = op.result.best_cut, op.result.baseline_cut
    if best is None or base is None or not base.sparsity:
        return None
    return float(best.sparsity / base.sparsity)


def gap(op: Op) -> float | None:
    best, bound = op.result.best_cut, op.result.lower_bound
    if best is None or not bound:
        return None
    return float(best.sparsity) / bound


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(pinned_before_numpy: bool) -> dict:
    """Kernel, thread and platform settings a comparison must hold fixed."""
    return {
        "kernel_compiled": bool(_core.HAVE_COMPILED),
        "kernel_module": _core._impl.__name__,
        "HYPERSPARS_PUREPY": os.environ.get("HYPERSPARS_PUREPY"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_pinned_before_numpy": pinned_before_numpy,
        "numpy": np.__version__,
        "blas": _blas(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "hyperspars": hyperspars.__version__,
    }
