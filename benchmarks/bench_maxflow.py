#!/usr/bin/env python3
"""Benchmark the compiled Dinic kernel against the pure-Python fallback.

The workload mirrors the solver's hot path: flow instances built on reduced
digraphs of random hypergraphs, solved repeatedly as the oracle would.

    python benchmarks/bench_maxflow.py [--sizes 8,16,32] [--repeats 200]
"""

import argparse
import statistics
import sys
import time

import numpy as np

from hyperspars._core import _maxflow_py
from hyperspars.flownet import build_flow_instance
from hyperspars.hypergraph import reduce_to_digraph
from hyperspars.reference import GeneratorSpec, generate

try:
    from hyperspars._core import _maxflow

    KERNELS = [("cython", _maxflow.max_flow_arrays), ("python", _maxflow_py.max_flow_arrays)]
except ImportError:
    print("compiled kernel not available; benchmarking pure python only")
    KERNELS = [("python", _maxflow_py.max_flow_arrays)]


def build_instances(n, count, seed):
    rng = np.random.default_rng(seed)
    instances = []
    for k in range(count):
        h = generate(
            GeneratorSpec(
                n=n,
                m=2 * n,
                kappa=min(3, n),
                model="expander-like",
                seed=seed * 1000 + k,
            )
        )
        rd = reduce_to_digraph(h)
        left = list(range(n // 2))
        right = list(range(n // 2, n))
        inst = build_flow_instance(
            rd,
            {i: float(rng.uniform(0.5, 4.0)) for i in left},
            {j: float(rng.uniform(0.5, 4.0)) for j in right},
        )
        instances.append(inst)
    return instances


def time_kernel(kernel, instances, repeats):
    # the tolerance flownet.max_flow passes for each instance
    eps = [1e-12 * max(max(inst.cap), 1.0) for inst in instances]
    times = []
    checksum = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for inst, tol in zip(instances, eps):
            value, _, _ = kernel(
                inst.num_nodes, inst.arc_from, inst.arc_to, inst.cap,
                inst.s, inst.t, tol,
            )
            checksum += value
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times), checksum


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,32,64")
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--instances", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",")]
    print(f"{'n':>5} {'arcs':>6} | " + " | ".join(f"{name:>10}" for name, _ in KERNELS)
          + (" | speedup" if len(KERNELS) == 2 else ""))
    for n in sizes:
        instances = build_instances(n, args.instances, args.seed)
        arcs = statistics.mean(len(i.arc_from) for i in instances)
        row = []
        checks = []
        for _, kernel in KERNELS:
            best, _, checksum = time_kernel(kernel, instances, args.repeats)
            per_solve = best / len(instances) * 1e6
            row.append(per_solve)
            checks.append(checksum)
        if len(checks) == 2 and abs(checks[0] - checks[1]) > 1e-6 * max(1.0, abs(checks[0])):
            print(f"kernel disagreement at n={n}: {checks}", file=sys.stderr)
            return 1
        line = f"{n:>5} {arcs:>6.0f} | " + " | ".join(f"{t:>8.1f}us" for t in row)
        if len(row) == 2:
            line += f" | {row[1] / row[0]:>6.1f}x"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
