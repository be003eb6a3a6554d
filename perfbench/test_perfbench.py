"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()
bench = run.import_bench()
tracing = run.tracing


def _traced_op(workload):
    s = bench.setups(workload, 0, tiny=True)[0]
    tracer = tracing.Tracer()
    with tracer.install(tracing.hyperspars_targets()):
        op = bench.run_op(s, tracer.span)
    return s, op, tracer


def _current(targets):
    return [owner.__dict__[attr] for owner, attr, *_ in targets]


def test_wrappers_removed_after_traced_run():
    targets = tracing.hyperspars_targets()
    before = _current(targets)
    _traced_op("certify")
    assert all(a is b for a, b in zip(_current(targets), before))


def test_wrappers_removed_when_traced_code_raises():
    targets = tracing.hyperspars_targets()
    before = _current(targets)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.install(targets):
            assert any(a is not b for a, b in zip(_current(targets), before))
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_current(targets), before))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_span_self_times_add_up_to_traced_wall(workload):
    _, _, tracer = _traced_op(workload)
    layer_self = sum(tracer.layer_self.values())
    span_self = sum(s.self_s for s in tracer.stats.values())
    assert tracer.wall_s > 0
    assert layer_self == pytest.approx(tracer.wall_s, rel=1e-9)
    assert span_self == pytest.approx(tracer.wall_s, rel=1e-9)
    assert not tracer._stack


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_runs_quickly_and_correctly(workload):
    t0 = time.perf_counter()
    s = bench.setups(workload, 0, tiny=True)[0]
    plain = bench.run_op(s)
    assert bench.check_op(s, plain) == []
    _, traced, tracer = _traced_op(workload)
    assert time.perf_counter() - t0 < 30.0
    # the traced run computes the same outputs as the untraced one
    assert bench.fingerprint(traced) == bench.fingerprint(plain)
    m = tracing.layer_metrics(tracer)
    assert m["driver.iterations"] == bench.fingerprint(plain)["iterations"]
    assert m["oracle.calls"] == sum(bench.fingerprint(plain)["cases"].values())


def test_failed_check_is_reported():
    s = bench.setups("certify", 0, tiny=True)[0]
    op = bench.run_op(s)
    op.doc["cut"]["sparsity"] = "1/1000"
    assert any("sparsity" in f for f in bench.check_op(s, op))


def test_metric_names_match_benchmark_json():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(bench.INSTANCES)
    _, _, tracer = _traced_op("search")
    layer_names = set(tracing.layer_metrics(tracer)) | {"report.certificates", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= layer_names
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.END_TO_END)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
