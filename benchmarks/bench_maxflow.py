#!/usr/bin/env python3
"""Benchmark the max-flow kernels: a batch of flows in one call against the
same flows one call each.

The workload mirrors the oracle's Case 2 scan: on the reduced digraph of an
expander-like hypergraph (m = 2n), a batch of flows whose terminals are two
to six random vertices, the first one to three of them sources and the rest
sinks.  Each kernel solves the batch twice: as one call that takes the
digraph's arcs once and each flow's row of terminal capacities, as
``flownet.max_flows`` makes it, and as one call per flow over the digraph's
arcs with that flow's terminal arcs appended and no terminal columns.  The
two forms must give the same flow values, cut masks and last arc flows bit
for bit, on both kernels, or the script exits 1; the time per flow is
printed for each.

    python benchmarks/bench_maxflow.py [--sizes 16,32,64,128] [--flows 48] [--repeats 30]
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


def build_batch(n, flows, seed):
    """An instance of ``flows`` flows on the reduced digraph of an
    expander-like hypergraph, with random terminals in each row."""
    h = generate(GeneratorSpec(n=n, m=2 * n, kappa=min(3, n), model="expander-like", seed=seed))
    rd = reduce_to_digraph(h)
    rng = np.random.default_rng(seed)
    source_caps, sink_caps = np.zeros((2, flows, n))
    for f in range(flows):
        ends = rng.permutation(n)[: int(rng.integers(2, 7))]
        sides = np.split(ends, [1 + int(rng.integers(0, 3))])
        caps = [rng.uniform(0.5, 4.0, len(side)) for side in sides]
        source_caps[f, sides[0]] = caps[0]
        sink_caps[f, sides[1]] = caps[1]
    return build_flow_instance(rd, source_caps, sink_caps)


def batch_args(inst):
    """The arguments of one batched call, as ``flownet.max_flows`` passes them."""
    s = inst.rd.num_vertices
    eps = flow_tolerance(inst)
    return (s + 2, *inst.rd.flow_arcs, s, s + 1, eps, inst.source_caps, inst.sink_caps)


def single_args(inst, f):
    """The arguments of one call for flow ``f`` alone: its terminal arcs
    appended to the digraph's arcs, and no terminal columns."""
    arc_from, arc_to, cap = inst.rd.flow_arcs
    s = inst.rd.num_vertices
    t = s + 1
    source_caps, sink_caps = inst.source_caps[f], inst.sink_caps[f]
    sources, sinks = np.flatnonzero(source_caps > 0.0), np.flatnonzero(sink_caps > 0.0)
    no_terminals = np.zeros((1, 0))
    return (
        s + 2,
        np.concatenate((arc_from, np.full(len(sources), s), sinks)),
        np.concatenate((arc_to, sources, np.full(len(sinks), t))),
        np.concatenate((cap, source_caps[sources], sink_caps[sinks])),
        s,
        t,
        flow_tolerance(inst)[f : f + 1],
        no_terminals,
        no_terminals,
    )


def same_outputs(batch, singles):
    """Whether a batched call and the calls one flow each gave the same
    values, cut masks and last arc flows, bit for bit."""
    values, flow, reach = batch
    return (
        [v.hex() for v in values.tolist()] == [float(r[0][0]).hex() for r in singles]
        and reach.tolist() == [r[2][0].tolist() for r in singles]
        and [f.hex() for f in flow.tolist()] == [f.hex() for f in singles[-1][1].tolist()]
    )


def time_it(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="16,32,64,128")
    parser.add_argument("--flows", type=int, default=48)
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    kernels = {"selected": _core.max_flow_arrays, "python": _maxflow_py.max_flow_arrays}
    print(f"selected kernel: {_core._impl.__name__} (compiled {_core.HAVE_COMPILED})")
    print(f"{'n':>5} {'arcs':>6} | {'kernel':>8} | {'form':>8} | {'best':>10} | {'median':>10}")
    for n in (int(s) for s in args.sizes.split(",")):
        inst = build_batch(n, args.flows, args.seed)
        batched = batch_args(inst)
        singles = [single_args(inst, f) for f in range(args.flows)]
        forms = {
            "batch": lambda kernel: kernel(*batched),
            "single": lambda kernel: [kernel(*a) for a in singles],
        }
        outputs = [forms["batch"](kernel) for kernel in kernels.values()]
        references = [forms["single"](kernel) for kernel in kernels.values()]
        if not all(same_outputs(out, ref) for out in outputs for ref in references):
            print(f"n={n}: the kernels' or the forms' outputs differ", file=sys.stderr)
            return 1
        for name, kernel in kernels.items():
            repeats = args.repeats if name == "selected" else max(1, args.repeats // 10)
            for form, run in forms.items():
                best, median = time_it(lambda: run(kernel), repeats)
                per_flow = [t / args.flows * 1e6 for t in (best, median)]
                print(f"{n:>5} {len(inst.rd.arcs):>6} | {name:>8} | {form:>8} | "
                      + " | ".join(f"{t:>8.1f}us" for t in per_flow))
    return 0


if __name__ == "__main__":
    sys.exit(main())
