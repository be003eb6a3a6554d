#!/usr/bin/env python3
"""Compare benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py base.json change.json

Refuses with exit code 2 when the two sides ran a different max-flow kernel
or different BLAS thread settings: ``PYTHONPATH=src`` never loads the
compiled kernel, so a changed environment would otherwise read as a kernel
gain.  Otherwise prints, per workload, the median of each metric on both
sides with their ratio, and whether the count fingerprints are identical.
Several records of one workload in a file (one per seed, say) are combined
by their median.
"""

import json
import statistics
import sys

# provenance keys that must match for two results to be compared
MUST_MATCH = (
    "kernel_compiled",
    "kernel_module",
    "HYPERSPARS_PUREPY",
    "OPENBLAS_NUM_THREADS",
    "blas_pinned_before_numpy",
)


def load(path: str) -> dict[str, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    by_workload: dict[str, list[dict]] = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def mismatches(base: list[dict], change: list[dict]) -> list[str]:
    """Provenance keys whose values differ anywhere across both sides."""
    out = []
    for key in MUST_MATCH:
        values = {json.dumps(rec["provenance"].get(key)) for rec in base + change}
        if len(values) > 1:
            out.append(f"{key}: {sorted(values)}")
    return out


def medians(records: list[dict]) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for rec in records:
        merged = {k: v["value"] for k, v in rec["end_to_end"].items()}
        merged.update(rec["per_layer"])
        for name, value in merged.items():
            if value is not None:
                values.setdefault(name, []).append(value)
    return {name: statistics.median(v) for name, v in values.items()}


def _fingerprints(records: list[dict]) -> list:
    return sorted(
        json.dumps([rec["seed"], rec["fingerprint"], rec["call_fingerprint"]], sort_keys=True)
        for rec in records
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    for workload in sorted(base.keys() & change.keys()):
        bad = mismatches(base[workload], change[workload])
        if bad:
            print(f"{workload}: refusing to compare; kernel or thread settings differ:")
            for line in bad:
                print(f"  {line}")
            return 2
    for workload in sorted(base.keys() & change.keys()):
        a, b = medians(base[workload]), medians(change[workload])
        same = _fingerprints(base[workload]) == _fingerprints(change[workload])
        print(f"== {workload}: count fingerprints {'identical' if same else 'DIFFER'}")
        for name in sorted(a.keys() & b.keys()):
            ratio = b[name] / a[name] if a[name] else float("nan")
            print(f"  {name:<40} {a[name]:>12.6g} {b[name]:>12.6g}  x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
