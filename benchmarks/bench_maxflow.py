#!/usr/bin/env python3
"""Benchmark the selected max-flow kernel against the Python reference.

The workload mirrors the solver's hot path: flow instances built on reduced
digraphs of random hypergraphs, solved repeatedly as the oracle would.  Both
kernels solve the same instances, their outputs must be identical, and the
time per solve is printed for each.

    python benchmarks/bench_maxflow.py [--sizes 8,16,32] [--repeats 200]
"""

import argparse
import statistics
import sys
import time

import numpy as np

from hyperspars import _core
from hyperspars._core import _maxflow_py
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
        left = np.arange(n // 2)
        right = np.arange(n // 2, n)
        source_caps = [float(rng.uniform(0.5, 4.0)) for _ in left]
        sink_caps = [float(rng.uniform(0.5, 4.0)) for _ in right]
        instances.append(build_flow_instance(rd, left, source_caps, right, sink_caps))
    return instances


def kernel_args(instances):
    # the arguments flownet.max_flow passes, tolerance included
    return [
        (inst.num_nodes, inst.arc_from, inst.arc_to, inst.cap, inst.s, inst.t,
         flow_tolerance(inst))
        for inst in instances
    ]


def bits(result):
    """A kernel result with every float spelled out to the last bit; the
    compiled kernel returns arrays, the Python one lists."""
    value, flow, reach = result
    return value.hex(), [float(f).hex() for f in flow], [bool(r) for r in reach]


def time_kernel(kernel, args, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for a in args:
            kernel(*a)
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
    kernels = {"selected": _core.max_flow_arrays, "python": _maxflow_py.max_flow_arrays}
    print(f"selected kernel: {_core._impl.__name__} (compiled {_core.HAVE_COMPILED})")
    print(f"{'n':>5} {'arcs':>6} | {'kernel':>8} | {'best':>10} | {'median':>10}")
    for n in sizes:
        args_n = kernel_args(build_instances(n, args.instances, args.seed))
        results = {
            name: [bits(kernel(*a)) for a in args_n] for name, kernel in kernels.items()
        }
        if any(res != results["python"] for res in results.values()):
            print(f"n={n}: the kernels' outputs differ", file=sys.stderr)
            return 1
        arcs = statistics.mean(len(a[1]) for a in args_n)
        for name, kernel in kernels.items():
            best, median = time_kernel(kernel, args_n, args.repeats)
            per_solve = [t / len(args_n) * 1e6 for t in (best, median)]
            print(f"{n:>5} {arcs:>6.0f} | {name:>8} | "
                  + " | ".join(f"{t:>8.1f}us" for t in per_solve))
    return 0


if __name__ == "__main__":
    sys.exit(main())
