#!/usr/bin/env python3
"""Benchmark the max-flow kernel.

The workload mirrors the solver's hot path: flow instances built on reduced
digraphs of random hypergraphs, solved repeatedly as the oracle would.

    python benchmarks/bench_maxflow.py [--sizes 8,16,32] [--repeats 200]
"""

import argparse
import statistics
import sys
import time

import numpy as np

from hyperspars._core import max_flow_arrays
from hyperspars.flownet import build_flow_instance, flow_tolerance
from hyperspars.hypergraph import reduce_to_digraph
from hyperspars.reference import GeneratorSpec, generate


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


def time_kernel(instances, repeats):
    # the tolerance flownet.max_flow passes for each instance
    eps = [flow_tolerance(inst) for inst in instances]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for inst, tol in zip(instances, eps):
            max_flow_arrays(
                inst.num_nodes, inst.arc_from, inst.arc_to, inst.cap,
                inst.s, inst.t, tol,
            )
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,32,64")
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--instances", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",")]
    print(f"{'n':>5} {'arcs':>6} | {'best':>10} | {'median':>10}")
    for n in sizes:
        instances = build_instances(n, args.instances, args.seed)
        arcs = statistics.mean(len(i.arc_from) for i in instances)
        best, median = time_kernel(instances, args.repeats)
        per_solve = [t / len(instances) * 1e6 for t in (best, median)]
        print(f"{n:>5} {arcs:>6.0f} | " + " | ".join(f"{t:>8.1f}us" for t in per_solve))
    return 0


if __name__ == "__main__":
    sys.exit(main())
