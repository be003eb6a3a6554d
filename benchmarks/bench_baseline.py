#!/usr/bin/env python3
"""Time the singleton/closure baseline that brackets every search.

The instances are expander-like hypergraphs with m = 2n, as in the
``search`` workload.  For each size the baseline is timed on first use,
which includes building the hypergraph's incidence, and warm, on the same
hypergraph again.  Up to ``--check-max`` vertices the result is checked
against ``scan_singleton_baseline``, the one-evaluation-per-candidate
reference kept in ``tests/witnesses.py``.

    python benchmarks/bench_baseline.py [--sizes 128,256,512,1024] [--repeats 20]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

from hyperspars.driver import _singleton_baseline
from hyperspars.hypergraph import DirectedHypergraph
from hyperspars.reference import GeneratorSpec, generate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from witnesses import scan_singleton_baseline  # noqa: E402


def instance(n, seed):
    return generate(GeneratorSpec(n=n, m=2 * n, kappa=2, model="expander-like", seed=seed))


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="128,256,512,1024")
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--check-max", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(f"{'n':>5} {'m':>5} | {'first use':>20} | {'warm':>20} | checked")
    print(f"{'':>11} | {'best':>9} {'median':>10} | {'best':>9} {'median':>10} |")
    for n in (int(s) for s in args.sizes.split(",")):
        h = instance(n, args.seed)
        first, warm = [], []
        for _ in range(args.repeats):
            # a fresh copy has no cached incidence
            fresh = DirectedHypergraph(h.names, h.vertex_weights, h.edges)
            t, cut = timed(_singleton_baseline, fresh)
            first.append(t)
            warm.append(timed(_singleton_baseline, fresh)[0])
        checked = n <= args.check_max
        if checked and scan_singleton_baseline(h) != cut:
            print(f"n={n}: the baseline differs from the scan", file=sys.stderr)
            return 1
        cells = [f"{1e3 * min(ts):>7.2f}ms {1e3 * statistics.median(ts):>8.2f}ms"
                 for ts in (first, warm)]
        print(f"{n:>5} {h.m:>5} | {cells[0]} | {cells[1]} | {'yes' if checked else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
