"""Span tracing from outside the package.

The tracer replaces public functions with timing wrappers in the namespace
of the module that calls them (``driver.mw_state``, ``oracle.max_flow``,
``report.certificate_check``, ...), so nothing under ``src/`` changes.
Every wrapped call opens a span on a stack; closing it records the span's
duration and self time (duration minus the time its child spans cover).
Spans are aggregated as they close, keyed by (phase, span name), where the
phase is the name of the outermost span the benchmark opened ("solve" or
"verify").  ``Tracer.install`` returns a context manager that puts every
original back on exit, even when the traced code raised.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

__all__ = ["SpanStats", "Tracer", "hyperspars_targets", "layer_metrics", "span_table", "call_fingerprint"]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    observed: dict = field(default_factory=dict)


class Tracer:
    """Stack of open spans plus per-(phase, name) aggregates."""

    def __init__(self):
        self.stats: dict[tuple[str, str], SpanStats] = {}
        self.layer_busy: dict[str, float] = {}
        self.layer_self: dict[str, float] = {}
        self.wall_s = 0.0
        self._stack: list[list] = []
        self._layer_depth: dict[str, int] = {}

    def _open(self, name: str, layer: str) -> None:
        depth = self._layer_depth.get(layer, 0)
        self._layer_depth[layer] = depth + 1
        phase = self._stack[0][0] if self._stack else name
        # [name, layer, phase, start, child time, outermost of its layer]
        self._stack.append([name, layer, phase, time.perf_counter(), 0.0, depth == 0])

    def _close(self, failed: bool = False) -> SpanStats:
        end = time.perf_counter()
        name, layer, phase, start, child, outermost = self._stack.pop()
        duration = end - start
        self_time = duration - child
        stats = self.stats.setdefault((phase, name), SpanStats())
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += self_time
        stats.failed += failed
        self.layer_self[layer] = self.layer_self.get(layer, 0.0) + self_time
        self._layer_depth[layer] -= 1
        if outermost:
            self.layer_busy[layer] = self.layer_busy.get(layer, 0.0) + duration
        if self._stack:
            self._stack[-1][4] += duration
        else:
            self.wall_s += duration
        return stats

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Span around a block of the benchmark's own code."""
        self._open(name, layer)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(failed)

    def wrap(self, fn, name: str, layer: str, observe=None):
        """Timing wrapper around ``fn``; ``observe(args, result)`` returns
        numbers to add to the span's ``observed`` totals."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(failed=True)
                raise
            stats = tracer._close()
            if observe is not None:
                for key, value in observe(args, result).items():
                    stats.observed[key] = stats.observed.get(key, 0) + value
            return result

        return traced

    @contextlib.contextmanager
    def install(self, targets):
        """Wrap every (owner, attribute, span name, layer, observe) target
        for the duration of the block, then restore the originals."""
        saved = []
        try:
            for owner, attr, name, layer, observe in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, layer, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def get(self, name: str, phase: str | None = None) -> SpanStats:
        """Aggregate of one span name over one phase, or over all phases."""
        out = SpanStats()
        for (ph, nm), s in self.stats.items():
            if nm != name or (phase is not None and ph != phase):
                continue
            out.calls += s.calls
            out.total_s += s.total_s
            out.self_s += s.self_s
            out.failed += s.failed
            for key, value in s.observed.items():
                out.observed[key] = out.observed.get(key, 0) + value
        return out


def _observe_case(args, outcome):
    return {f"case.{outcome.case}": 1}


def _observe_flow_value(args, result):
    return {"flow_value": result.value}


def _observe_arcs(args, result):
    # max_flow_arrays(n_nodes, arc_from, ...)
    return {"arcs": len(args[1])}


def hyperspars_targets():
    """The wrap table: (owner, attribute, span name, layer, observe).

    The owner is the namespace the caller looks the function up in: the
    calling module for module-level imports, ``numpy.linalg`` for the
    eigendecompositions (every caller goes through ``np.linalg``), and the
    class for ``GramState.pairwise_dist2``.
    """
    import numpy as np

    from hyperspars import driver, flownet, oracle, report, sdpcore

    return [
        # hypergraph
        (driver, "evaluate_cut", "hypergraph.cut_eval.baseline", "hypergraph", None),
        (driver, "out_closure", "hypergraph.cut_eval.baseline", "hypergraph", None),
        (oracle, "evaluate_cut", "hypergraph.cut_eval.oracle", "hypergraph", None),
        (report, "sparsity", "hypergraph.cut_eval.verify", "hypergraph", None),
        (driver, "reduce_to_digraph", "hypergraph.reduce", "hypergraph", None),
        (oracle, "reduce_to_digraph", "hypergraph.reduce", "hypergraph", None),
        (driver, "reverse", "hypergraph.reverse", "hypergraph", None),
        (report, "reverse", "hypergraph.reverse", "hypergraph", None),
        (report, "serialize_dhg", "hypergraph.serialize", "hypergraph", None),
        # sdpcore
        (np.linalg, "eigh", "sdpcore.eig", "sdpcore", None),
        (np.linalg, "eigvalsh", "sdpcore.eig", "sdpcore", None),
        (sdpcore.GramState, "pairwise_dist2", "sdpcore.dist2", "sdpcore", None),
        (driver, "mat_K", "sdpcore.mat_K", "sdpcore", None),
        (oracle, "mat_K", "sdpcore.mat_K", "sdpcore", None),
        (report, "mat_K", "sdpcore.mat_K", "sdpcore", None),
        (driver, "spectral_norm", "sdpcore.norm", "sdpcore", None),
        (oracle, "spectral_norm", "sdpcore.norm", "sdpcore", None),
        (driver, "min_eigenvalue", "sdpcore.norm", "sdpcore", None),
        (report, "min_eigenvalue", "sdpcore.norm", "sdpcore", None),
        # flownet (with the _core kernel)
        (oracle, "build_flow_instance", "flownet.build", "flownet", None),
        (oracle, "max_flow", "flownet.max_flow", "flownet", _observe_flow_value),
        (flownet, "max_flow_arrays", "flownet.kernel", "flownet", _observe_arcs),
        (oracle, "lift_flow", "flownet.lift", "flownet", None),
        (oracle, "decompose", "flownet.decompose", "flownet", None),
        (flownet, "flow_matrix", "flownet.matrix", "flownet", None),
        (flownet, "triangle_matrix_sum", "flownet.matrix", "flownet", None),
        # oracle
        (driver, "run_oracle", "oracle.call", "oracle", _observe_case),
        (oracle, "certificate_check", "oracle.cert_check", "oracle", None),
        (report, "certificate_check", "report.replay.cert_check", "oracle", None),
        # driver
        (driver, "run_both_sides", "driver.probe", "driver", None),
        (driver, "run_algorithm1", "driver.run", "driver", None),
        (driver, "_singleton_baseline", "driver.baseline", "driver", None),
        (driver, "mw_state", "driver.mw_state", "driver", None),
        (report, "mw_state", "report.replay.mw_state", "driver", None),
    ]


LAYERS = ("hypergraph", "sdpcore", "flownet", "oracle", "driver", "report", "harness")
CASES = ("1A", "1B", "2A", "2B", "2C")
_CALLS_AND_TIME = (
    "hypergraph.cut_eval.baseline",
    "hypergraph.cut_eval.oracle",
    "hypergraph.cut_eval.verify",
    "hypergraph.reduce",
    "sdpcore.eig",
    "sdpcore.mat_K",
    "sdpcore.dist2",
    "flownet.build",
    "flownet.max_flow",
    "flownet.kernel",
    "flownet.lift",
    "flownet.decompose",
    "flownet.matrix",
    "oracle.cert_check",
    "driver.mw_state",
)
_TIME_ONLY = (
    "report.build",
    "report.dumps",
    "report.loads",
    "report.verify",
    "report.replay.mw_state",
    "report.replay.cert_check",
)


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced operation.

    ``<layer>.s`` is the layer's busy time (its outermost spans) and
    ``<layer>.self_s`` its self time; the self times of all layers,
    ``harness`` included, add up to ``trace.wall_s``.
    """
    g = t.get
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.s"] = t.layer_busy.get(layer, 0.0)
        m[f"{layer}.self_s"] = t.layer_self.get(layer, 0.0)
    for name in _CALLS_AND_TIME:
        m[f"{name}.calls"] = g(name).calls
        m[f"{name}.s"] = g(name).total_s
    for name in _TIME_ONLY:
        m[f"{name}.s"] = g(name).total_s
    m["report.verify.self_s"] = g("report.verify").self_s

    iterations = g("driver.mw_state").calls
    oracle = g("oracle.call")
    kernel = g("flownet.kernel")
    m["driver.iterations"] = iterations
    m["driver.probes"] = g("driver.probe").calls
    m["driver.runs"] = g("driver.run").calls
    m["driver.ms_per_iter"] = 1000.0 * g("driver.run").total_s / max(iterations, 1)
    m["sdpcore.eig_per_iter"] = g("sdpcore.eig", "solve").calls / max(iterations, 1)
    m["flownet.kernel.arcs"] = kernel.observed.get("arcs", 0)
    m["flownet.kernel.arcs_mean"] = m["flownet.kernel.arcs"] / max(kernel.calls, 1)
    m["flownet.flow_value_sum"] = g("flownet.max_flow").observed.get("flow_value", 0.0)
    m["oracle.calls"] = oracle.calls
    for case in CASES:
        m[f"oracle.case.{case}"] = oracle.observed.get(f"case.{case}", 0)
    m["oracle.flows_per_call"] = m["flownet.max_flow.calls"] / max(oracle.calls, 1)
    m["oracle.fail_frac"] = oracle.failed / max(oracle.calls, 1)
    m["trace.wall_s"] = t.wall_s
    return m


def span_table(t: Tracer) -> dict[str, dict]:
    """Calls, total and self time of every span name, over all phases."""
    out = {}
    for name in sorted({name for _, name in t.stats}):
        s = t.get(name)
        out[name] = {"calls": s.calls, "s": s.total_s, "self_s": s.self_s}
    return out


def call_fingerprint(m: dict[str, float]) -> dict:
    """Counts only the traced run can see; identical on every run of one seed."""
    return {
        "oracle_calls": m["oracle.calls"],
        "flows": m["flownet.max_flow.calls"],
        "kernel_arcs": m["flownet.kernel.arcs"],
        "flow_value_sum": m["flownet.flow_value_sum"],
        "eigendecompositions": m["sdpcore.eig.calls"],
        "evaluate_cut": m["hypergraph.cut_eval.baseline.calls"]
        + m["hypergraph.cut_eval.oracle.calls"],
    }
