#!/usr/bin/env python3
"""End-to-end benchmark of hyperspars: solve, report and check-cert.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --out results.json

Run from the root of a checkout; the package is imported from its ``src/``.
Each run repeats one operation (solve + ``solve_report`` + ``dumps_report``,
then ``json.loads`` + ``verify_report``) on the seed's input until
``--seconds`` have passed, checks every output, and prints the metrics by
name and unit.  With ``--trace 1`` the first third of the time runs
untraced and the rest traced, and the per-layer metrics come from the
traced part.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the ``end_to_end``
metrics of BENCHMARK.json for ``--trace 0`` and its ``per_layer`` metrics
for ``--trace 1``.  The exit code is 1 when a check failed and 2 when the
package or BENCHMARK.json cannot be found.
"""

import os
import sys

# pin BLAS to one thread before anything can import numpy
BLAS_PINNED_BEFORE_NUMPY = "numpy" not in sys.modules
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (standard library only; imports no numpy)

WORKLOADS = ("search", "dual-loop", "certify")
END_TO_END = ("setup_s", "solve_s", "verify_s", "fail_rate", "cut_vs_baseline", "gap",
              "report_mb", "peak_rss_mb")
# set-ups per run: at least 3, more while they fit in SETUP_BUDGET_S
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 3.0
SETUP_TIMEOUT_S = 60
# a verify shorter than this is repeated within the operation (search's
# report holds no certificates and verifies in milliseconds)
VERIFY_MIN_S = 0.25
TOP_SPANS = 8


class MissingProgram(RuntimeError):
    """The checkout holds no importable hyperspars package or BENCHMARK.json."""


def import_bench():
    """Import the benchmark modules, with hyperspars from this checkout only."""
    if not (SRC / "hyperspars" / "__init__.py").is_file():
        raise MissingProgram(f"no hyperspars package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bench
    import hyperspars

    if Path(hyperspars.__file__).resolve().parent != SRC / "hyperspars":
        raise MissingProgram(f"hyperspars imported from {hyperspars.__file__}, not {SRC}")
    return bench


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise MissingProgram(f"no {path}")
    return json.loads(path.read_text())


def time_setup(workload: str, seed: int) -> float:
    """Import + instance build + reference values, timed in a fresh process."""
    t0 = time.perf_counter()
    bench = import_bench()
    bench.setups(workload, seed)
    return time.perf_counter() - t0


def setup_samples(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    fewest, most = SETUP_REPEATS
    t0 = time.perf_counter()
    while len(samples) < fewest or (
        len(samples) < most and time.perf_counter() - t0 < SETUP_BUDGET_S
    ):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def one_op(bench, index: int, s, traced: bool) -> dict:
    """Run and check one operation; keeps only the numbers, so memory and
    garbage-collector work do not grow with the number of operations."""
    gc.collect()
    row = {"instance": index, "traced": traced, "layers": None}
    tracer = tracing.Tracer() if traced else None
    try:
        if traced:
            with tracer.install(tracing.hyperspars_targets()):
                op = bench.run_op(s, tracer.span)
        else:
            op = bench.run_op(s, min_verify_s=VERIFY_MIN_S)
        row["failures"] = bench.check_op(s, op)
    except Exception as exc:  # a failed operation is counted, not fatal
        row["failures"] = [f"{type(exc).__name__}: {exc}"]
        return row
    row.update(
        solve_s=op.solve_s,
        verify_s=op.verify_s,
        fingerprint=bench.fingerprint(op),
        report_mb=len(op.text.encode()) / 1e6,
        cut_vs_baseline=bench.cut_vs_baseline(op),
        gap=bench.gap(op),
    )
    if traced:
        row["layers"] = tracing.layer_metrics(tracer)
        row["spans"] = tracing.span_table(tracer)
    return row


def run_ops(bench, setups, seconds: float, traced: bool) -> list[dict]:
    """Cycle through the instances for about ``seconds``: every instance
    runs at least once, and another operation starts only while it is
    expected to end less than half an operation past the deadline."""
    rows = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(rows) < len(setups) or (
        time.perf_counter() + 0.5 * (time.perf_counter() - start) / len(rows) < deadline
    ):
        index = len(rows) % len(setups)
        rows.append(one_op(bench, index, setups[index], traced))
    return rows


def _median(values):
    return statistics.median(values) if values else float("nan")


def instance_mean(rows: list[dict], get):
    """Mean over instances of each instance's median; None when undefined."""
    by_instance: dict[int, list] = {}
    for row in rows:
        value = get(row)
        if value is not None:
            by_instance.setdefault(row["instance"], []).append(value)
    if not by_instance:
        return None
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


def _consistent(rows: list[dict], key: str) -> bool:
    """Every operation on one instance produced the same ``key`` value."""
    seen: dict[int, object] = {}
    return all(seen.setdefault(r["instance"], r[key]) == r[key] for r in rows)


def first_per_instance(rows: list[dict], key: str) -> list:
    out: dict[int, object] = {}
    for r in rows:
        out.setdefault(r["instance"], r[key])
    return [out[i] for i in sorted(out)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record."""
    bench = import_bench()
    setup_s = setup_samples(workload, seed)
    bench.run_op(bench.setups(workload, seed, tiny=True)[0])  # first-call costs, not timed
    setups = bench.setups(workload, seed)

    # a traced run spends a third of its time untraced, for the overhead,
    # and two thirds traced, so that call counts can be compared
    plain = run_ops(bench, setups, seconds / 3 if trace else seconds, traced=False)
    traced = run_ops(bench, setups, 2 * seconds / 3, traced=True) if trace else []
    rows = plain + traced
    ok = [r for r in rows if not r["failures"]]
    ok_plain = [r for r in ok if not r["traced"]]
    ok_traced = [r for r in ok if r["traced"]]
    failures = [f for r in rows for f in r["failures"]]
    if not _consistent(ok, "fingerprint"):
        failures.append("count fingerprint differs between operations on one instance")
    calls = [dict(r, calls=tracing.call_fingerprint(r["layers"])) for r in ok_traced]
    if not _consistent(calls, "calls"):
        failures.append("call fingerprint differs between traced operations on one instance")

    solve = instance_mean(ok_plain, lambda r: r["solve_s"])
    e2e = {
        "setup_s": (_median(setup_s), len(setup_s)),
        "solve_s": (solve, len(ok_plain)),
        "verify_s": (instance_mean(ok_plain, lambda r: r["verify_s"]), len(ok_plain)),
        "fail_rate": (len([r for r in rows if r["failures"]]) / len(rows), len(rows)),
        "cut_vs_baseline": (instance_mean(ok, lambda r: r["cut_vs_baseline"]), len(setups)),
        "gap": (instance_mean(ok, lambda r: r["gap"]), len(setups)),
        "report_mb": (instance_mean(ok, lambda r: r["report_mb"]), len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    per_layer, spans = {}, {}
    if ok_traced:
        for name in ok_traced[0]["layers"]:
            per_layer[name] = instance_mean(ok_traced, lambda r: r["layers"][name])
        per_layer["report.certificates"] = instance_mean(
            ok_traced, lambda r: r["fingerprint"]["certificates"])
        if solve is not None:
            per_layer["trace.overhead_s"] = instance_mean(ok_traced, lambda r: r["solve_s"]) - solve
        for name in ok_traced[0]["spans"]:
            spans[name] = {
                key: instance_mean(ok_traced, lambda r: r["spans"].get(name, {}).get(key))
                for key in ("calls", "s", "self_s")
            }
    return {
        "workload": workload,
        "seed": seed,
        "instance_seeds": [s.seed for s in setups],
        "seconds": seconds,
        "trace": trace,
        "provenance": bench.provenance(BLAS_PINNED_BEFORE_NUMPY),
        "attempted": len(rows),
        "failed": len([r for r in rows if r["failures"]]),
        "failures": failures,
        "fingerprint": first_per_instance(ok, "fingerprint"),
        "call_fingerprint": first_per_instance(calls, "calls"),
        "end_to_end": {k: {"value": e2e[k][0], "samples": e2e[k][1]} for k in END_TO_END},
        "per_layer": per_layer,
        "spans": spans,
        "traced_ops": len(ok_traced),
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _units(spec: dict) -> dict[str, str]:
    """Units of the end-to-end metrics, gated in BENCHMARK.json or not."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(fail_rate="ratio", cut_vs_baseline="ratio", gap="ratio")
    return units


def print_record(rec: dict, spec: dict) -> None:
    units = _units(spec)
    p = rec["provenance"]
    print(f"== {rec['workload']}  seed {rec['seed']}  ops {rec['attempted']} "
          f"(failed {rec['failed']})  kernel {p['kernel_module']} "
          f"(compiled {p['kernel_compiled']}, HYPERSPARS_PUREPY={p['HYPERSPARS_PUREPY']})")
    print(f"   numpy {p['numpy']}, {p['blas']}, python {p['python']}, nproc {p['nproc']}, "
          f"OPENBLAS_NUM_THREADS={p['OPENBLAS_NUM_THREADS']} "
          f"(set before numpy: {p['blas_pinned_before_numpy']})")
    for name in END_TO_END:
        m = rec["end_to_end"][name]
        print(f"   {name:<16} {_fmt(m['value']):>12} {units[name]:<6} n={m['samples']}")
    for fp in rec["fingerprint"]:
        print(f"   fingerprint {json.dumps(fp, sort_keys=True)}")
    for failure in rec["failures"]:
        print(f"   FAILED: {failure}")
    layers = rec["per_layer"]
    if not layers:
        return
    for fp in rec["call_fingerprint"]:
        print(f"   calls {json.dumps(fp, sort_keys=True)}")
    wall = layers["trace.wall_s"]
    print(f"   traced ops {rec['traced_ops']}, traced wall {wall:.4g} s, "
          f"tracing overhead on solve_s {layers.get('trace.overhead_s', float('nan')):+.4g} s")
    order = sorted(tracing.LAYERS, key=lambda layer: -layers[f"{layer}.self_s"])
    print(f"   dominant layer by self time: {order[0]} "
          f"({100 * layers[f'{order[0]}.self_s'] / wall:.1f}% of traced wall)")
    for layer in order:
        print(f"   {layer:<11} busy {layers[f'{layer}.s']:>9.4f} s  "
              f"self {layers[f'{layer}.self_s']:>9.4f} s "
              f"({100 * layers[f'{layer}.self_s'] / wall:5.1f}%)")
    calls = sum(sp["calls"] for sp in rec["spans"].values())
    iterations = max(layers["driver.iterations"], 1)
    print(f"   wrapped calls {calls:.0f} ({calls / iterations:.1f} per iteration), "
          f"mean {1e6 * wall / max(calls, 1):.1f} us of traced wall per call")
    print("   spans by self time:")
    for name, sp in sorted(rec["spans"].items(), key=lambda kv: -kv[1]["self_s"])[:TOP_SPANS]:
        print(f"   {name:<28} calls {sp['calls']:>9.0f}  self {sp['self_s']:>8.4f} s "
              f"({100 * sp['self_s'] / wall:5.1f}%)  {1e6 * sp['s'] / max(sp['calls'], 1):>10.1f} us/call")
    shown = {f"{layer}.{kind}" for layer in tracing.LAYERS for kind in ("s", "self_s")}
    for name in sorted(set(layers) - shown):
        print(f"   {name:<36} {_fmt(layers[name])}")


def result_line(rec_list: list[dict], spec: dict, trace: bool) -> dict:
    """The final JSON line; metric names carry a workload prefix when the
    line covers several workloads."""
    metrics = {}
    section = "per_layer" if trace else "end_to_end"
    for rec in rec_list:
        values = {k: v["value"] for k, v in rec["end_to_end"].items()}
        values.update(rec["per_layer"])
        prefix = f"{rec['workload']}." if len(rec_list) > 1 else ""
        for m in spec[section]:
            value = values.get(m["name"])
            ok = value is not None and math.isfinite(value)
            metrics[prefix + m["name"]] = {
                "value": float(value) if ok else 0.0,
                "unit": m["unit"],
            }
    return {
        "correct": all(rec["failed"] == 0 and not rec["failures"] for rec in rec_list),
        "attempted": sum(rec["attempted"] for rec in rec_list),
        "failed": sum(max(rec["failed"], 1 if rec["failures"] else 0) for rec in rec_list),
        "metrics": metrics,
    }


def run_all(args) -> list[dict]:
    """Every workload in its own process, so peak memory stays per workload."""
    records = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for workload in WORKLOADS:
            out = Path(tmp) / f"{workload}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out)]
            subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
            if not out.is_file():
                raise RuntimeError(f"workload {workload} wrote no record")
            records.append(json.loads(out.read_text())[0])
    return records


def print_summary(records: list[dict], spec: dict) -> None:
    units = _units(spec)
    print(f"{'metric':<16} {'unit':<6}" + "".join(f" {r['workload']:>16}" for r in records))
    for name in END_TO_END:
        cells = []
        for rec in records:
            m = rec["end_to_end"][name]
            cells.append(f"{_fmt(m['value'])} (n={m['samples']})")
        print(f"{name:<16} {units[name]:<6}" + "".join(f" {c:>16}" for c in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full records (JSON list) to this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_only:
            print(json.dumps({"setup_s": time_setup(args.workload, args.seed)}))
            return 0
        spec = load_spec()
        if args.workload == "all":
            records = run_all(args)
            for rec in records:
                print_record(rec, spec)
            print_summary(records, spec)
        else:
            records = [measure(args.workload, args.seed, args.seconds, bool(args.trace))]
            print_record(records[0], spec)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    line = result_line(records, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
