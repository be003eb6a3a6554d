"""Max-flow / min-cut, flow lifting, decomposition, demand matrices."""

import itertools
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperspars
from hyperspars import _core, flownet
from hyperspars._core import _maxflow_py
from hyperspars.flownet import (
    FlowAssignment,
    MaxFlowResult,
    build_flow_instance,
    decompose,
    flow_matrix,
    lift_flow,
    flow_tolerance,
    max_flow,
    max_flows,
)
from hyperspars.hypergraph import parse_dhg, reduce_to_digraph, reverse
from hyperspars.reference import GeneratorSpec, generate
from hyperspars.sdpcore import TriangleId, spectral_norm

from conftest import make_h, normalized_state, random_hypergraph
from witnesses import (
    capacity_duality_check,
    concatenated_arcs,
    decomposition_matrix_identity_gap,
    demand_matrix,
    demand_norm_bound,
    directed_distance,
    gram,
    loop_demand_matrix,
    loop_flow_matrix,
    loop_lift_flow,
    loop_triangle_matrix_sum,
    mapping_triangle_sum,
    mat_A,
    per_edge_totals,
)

THREE_CYCLE = "dhg 3 3\nv a 1\nv b 1\nv c 1\ne 1 T a H b\ne 1 T b H c\ne 1 T c H a\n"


def brute_min_cut(n_nodes, arcs, s, t):
    """Exhaustive minimum s-t cut over all s-side subsets."""
    others = [v for v in range(n_nodes) if v not in (s, t)]
    best = float("inf")
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            side = {s, *combo}
            cut = sum(c for u, v, c in arcs if u in side and v not in side)
            best = min(best, cut)
    return best


def run_kernel(kernel, n_nodes, arcs, s, t):
    frm = [a[0] for a in arcs]
    to = [a[1] for a in arcs]
    cap = [a[2] for a in arcs]
    return kernel(n_nodes, frm, to, cap, s, t, 1e-12)


def random_arc_lists(rng, count):
    """(n_nodes, arcs) pairs: random arcs with half-integer capacities."""
    for _ in range(count):
        n_nodes = int(rng.integers(4, 13))
        n_arcs = int(rng.integers(3, 3 * n_nodes))
        arcs = []
        for _ in range(n_arcs):
            u, v = rng.choice(n_nodes, size=2, replace=False)
            arcs.append((int(u), int(v), float(rng.integers(0, 8)) / 2.0))
        yield n_nodes, arcs


class TestMaxFlowKernels:
    def test_single_arc(self):
        val, flow, reach = run_kernel(_maxflow_py.max_flow_arrays, 2, [(0, 1, 5.0)], 0, 1)
        assert val == 5.0
        assert flow.tolist() == [5.0]
        assert reach.tolist() == [True, False]

    def test_diamond_two_paths(self):
        arcs = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
        val, _, _ = run_kernel(_maxflow_py.max_flow_arrays, 4, arcs, 0, 3)
        assert val == pytest.approx(2.0)

    def test_bottleneck(self):
        arcs = [(0, 1, 4.0), (1, 2, 1.5), (2, 3, 4.0)]
        val, flow, reach = run_kernel(_maxflow_py.max_flow_arrays, 4, arcs, 0, 3)
        assert val == pytest.approx(1.5)
        assert reach.tolist() == [True, True, False, False]

    def test_random_instances_match_exhaustive_cut(self, rng):
        kernel = _maxflow_py.max_flow_arrays
        for n_nodes, arcs in random_arc_lists(rng, 120):
            val, flow, reach = run_kernel(kernel, n_nodes, arcs, 0, n_nodes - 1)
            expected = brute_min_cut(n_nodes, arcs, 0, n_nodes - 1)
            assert val == pytest.approx(expected, abs=1e-9 * max(1.0, expected))
            # reachability boundary is a min cut
            cut = sum(c for u, v, c in arcs if reach[u] and not reach[v])
            assert cut == pytest.approx(expected, abs=1e-9 * max(1.0, expected))
            # flow conservation at internal nodes
            for w in range(1, n_nodes - 1):
                inflow = sum(f for (u, v, _), f in zip(arcs, flow) if v == w)
                outflow = sum(f for (u, v, _), f in zip(arcs, flow) if u == w)
                assert inflow == pytest.approx(outflow, abs=1e-9)


def edmonds_karp(n_nodes, arc_from, arc_to, cap, s, t):
    """Shortest-augmenting-path max-flow value, as an independent reference."""
    to, res, adj = [], [], [[] for _ in range(n_nodes)]
    for u, v, c in zip(arc_from, arc_to, cap):
        adj[u].append(len(to))
        to.append(v)
        res.append(c)
        adj[v].append(len(to))
        to.append(u)
        res.append(0.0)
    value = 0.0
    while True:
        via = [None] * n_nodes
        via[s] = -1
        queue = [s]
        for u in queue:
            for e in adj[u]:
                if via[to[e]] is None and res[e] > 0.0:
                    via[to[e]] = e
                    queue.append(to[e])
        if via[t] is None:
            return value
        path = []
        v = t
        while v != s:
            path.append(via[v])
            v = to[via[v] ^ 1]
        pushed = min(res[e] for e in path)
        for e in path:
            res[e] -= pushed
            res[e ^ 1] += pushed
        value += pushed


def reduced_flow_instances(rng, count):
    """Flow instances on reduced digraphs of random hypergraphs, gadget arcs
    included, with random terminal capacities on a random vertex split."""
    instances = []
    while len(instances) < count:
        h = random_hypergraph(rng, max_n=9, max_m=8)
        left = [v for v in range(h.n) if rng.random() < 0.4]
        right = [v for v in range(h.n) if v not in left]
        if not left or not right:
            continue
        source_caps = [float(rng.uniform(0.01, 4.0)) for _ in left]
        sink_caps = [float(rng.uniform(0.01, 4.0)) for _ in right]
        instances.append(
            build_flow_instance(reduce_to_digraph(h), left, source_caps, right, sink_caps)
        )
    return instances


class TestKernelOnReducedDigraphs:
    # the capacity-scaling kernel skips phases that a failed BFS proves
    # cannot push flow: these instances take at most 11 BFS per flow with
    # the skip and 31 to 42 without it
    MAX_BFS_PER_FLOW = 12

    def test_value_min_cut_and_bfs_count(self, rng, monkeypatch):
        calls = []
        bfs = _maxflow_py._bfs

        def counted(*args):
            calls.append(1)
            return bfs(*args)

        monkeypatch.setattr(_maxflow_py, "_bfs", counted)
        worst = 0
        for inst in reduced_flow_instances(rng, 60):
            eps = flow_tolerance(inst)
            arcs = concatenated_arcs(inst)
            calls.clear()
            value, _, reach = _maxflow_py.max_flow_arrays(*arcs, eps)
            worst = max(worst, len(calls))
            expected = edmonds_karp(*arcs)
            assert value == pytest.approx(expected, abs=eps)
            assert reach[inst.s] and not reach[inst.t]
            _, arc_from, arc_to, cap, _, _ = arcs
            leaving = sum(c for u, v, c in zip(arc_from, arc_to, cap) if reach[u] and not reach[v])
            assert leaving == pytest.approx(value, abs=eps)
        assert worst <= self.MAX_BFS_PER_FLOW


class TestFlowTolerance:
    # an edge-weight ratio of 1e14: the gadget weight is about 6e7 times
    # the terminal capacities below, so a tolerance taken from the largest
    # arc (1e-12 of it) exceeded every source arc and the flow came out 0
    WIDE = (
        "dhg 3 2\nv a 1\nv b 1\nv c 1\n"
        "e 1/10000000 T a H b c\ne 10000000 T b c H a\n"
    )

    def test_wide_weights_match_edmonds_karp(self):
        rd = reduce_to_digraph(parse_dhg(self.WIDE))
        inst = build_flow_instance(rd, [0], [1e-6], [1, 2], [1e-6, 1e-6])
        res = max_flow(inst)
        arcs = concatenated_arcs(inst)
        expected = edmonds_karp(*arcs)
        assert expected == pytest.approx(5e-8)
        assert res.value == pytest.approx(expected, rel=1e-9)
        _, arc_from, arc_to, cap, _, _ = arcs
        leaving = sum(
            c for u, v, c in zip(arc_from, arc_to, cap) if res.reachable[u] and not res.reachable[v]
        )
        assert leaving == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("caps", [([], [], [], []), ([0], [0.0], [2], [0.0])])
    def test_no_terminal_capacity_zero_flow(self, caps):
        _, rd = simple_instance()
        inst = build_flow_instance(rd, *caps)
        assert flow_tolerance(inst) > 0.0
        res = max_flow(inst)
        assert res.value == 0.0
        assert not any(res.arc_flow)
        assert res.reachable[inst.s] and not res.reachable[inst.t]


def bits(result):
    """A kernel result with every float spelled out to the last bit."""
    value, flow, reach = result
    return value.hex(), [float(f).hex() for f in flow], [bool(r) for r in reach]


def instance_args(inst):
    """The kernel's arguments for ``inst`` as one flow over plain arcs."""
    return (*concatenated_arcs(inst), flow_tolerance(inst))


def assert_kernels_agree(*args):
    got = _core.max_flow_arrays(*args)
    assert type(got[0]) is float and got[1].dtype == np.float64 and got[2].dtype == np.bool_
    assert bits(got) == bits(_maxflow_py.max_flow_arrays(*args))


class TestCompiledKernel:
    """The selected kernel against the Python reference, bit for bit.

    Where a C compiler exists the selected kernel is the compiled one, and
    ``test_compiled_where_a_compiler_exists`` makes sure of that.
    """

    def test_compiled_where_a_compiler_exists(self):
        cc = shlex.split(sysconfig.get_config_var("CC") or "")[:1]
        on_path = [c for c in (*cc, "cc") if shutil.which(c)]
        assert _core.HAVE_COMPILED or not on_path
        assert _core.HAVE_COMPILED == (_core._impl is not _maxflow_py)
        assert _core.max_flow_arrays is _core._impl.max_flow_arrays

    def test_random_instances(self, rng):
        for n_nodes, arcs in random_arc_lists(rng, 120):
            frm, to, cap = (list(col) for col in zip(*arcs))
            assert_kernels_agree(n_nodes, frm, to, cap, 0, n_nodes - 1, 1e-12)

    def test_reduced_digraph_instances(self, rng):
        for inst in reduced_flow_instances(rng, 60):
            assert_kernels_agree(*instance_args(inst))

    @pytest.mark.parametrize("caps", [([], [], [], []), ([0], [0.0], [2], [0.0])])
    def test_no_terminal_capacity(self, caps):
        _, rd = simple_instance()
        assert_kernels_agree(*instance_args(build_flow_instance(rd, *caps)))

    def test_source_is_sink(self):
        _, rd = simple_instance()
        n, frm, to, cap, s, _, eps = instance_args(build_flow_instance(rd, [0], [1.0], [2], [1.0]))
        assert_kernels_agree(n, frm, to, cap, s, s, eps)

    def test_capacities_within_eps(self):
        arcs = [(0, 1, 1e-13), (1, 2, 5e-13), (0, 2, 1e-12)]
        frm, to, cap = (list(col) for col in zip(*arcs))
        assert_kernels_agree(3, frm, to, cap, 0, 2, 1e-12)

    def test_wide_weight_ratio(self):
        rd = reduce_to_digraph(parse_dhg(TestFlowTolerance.WIDE))
        inst = build_flow_instance(rd, [0], [1e-6], [1, 2], [1e-6, 1e-6])
        assert_kernels_agree(*instance_args(inst))
        assert max_flow(inst).value == pytest.approx(5e-8, rel=1e-9)

    def test_out_of_range_node_raises(self):
        with pytest.raises((ValueError, IndexError)):
            _core.max_flow_arrays(2, [0], [2], [1.0], 0, 1, 1e-12)

    def test_without_a_compiler_the_python_kernel_runs(self, rng, tmp_path):
        # a copy of the package without its cached build, imported where
        # no compiler can be found and the temp dir holds no build either
        src = tmp_path / "src"
        shutil.copytree(
            Path(hyperspars.__file__).parent,
            src / "hyperspars",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        (tmp_path / "tmp").mkdir()
        instances = [
            [n, frm.tolist(), to.tolist(), cap.tolist(), s, t, eps]
            for n, frm, to, cap, s, t, eps in map(instance_args, reduced_flow_instances(rng, 20))
        ]
        script = (
            "import json, shutil, sys\n"
            "shutil.which = lambda *args, **kwargs: None\n"
            "from hyperspars import _core\n"
            "flows = [_core.max_flow_arrays(*args) for args in json.load(sys.stdin)]\n"
            "flows = [(value, flow.tolist(), reach.tolist()) for value, flow, reach in flows]\n"
            "print(json.dumps([_core.__file__, _core._impl.__name__, _core.HAVE_COMPILED, flows]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmp_path / "tmp"))
        proc = subprocess.run(
            [sys.executable, "-c", script], input=json.dumps(instances),
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        origin, module, compiled, flows = json.loads(proc.stdout)
        assert Path(origin).is_relative_to(src)
        assert (module, compiled) == ("hyperspars._core._maxflow_py", False)
        assert not list(tmp_path.rglob("*.so"))
        assert [bits(f) for f in flows] == [bits(_core.max_flow_arrays(*a)) for a in instances]


KERNELS = sorted({_maxflow_py, _core._impl}, key=lambda kernel: kernel.__name__)


class TestBatchedKernel:
    """A batch of flows over one reduced digraph, each with its own terminal
    arcs, against the same flows run one at a time on their concatenated
    arcs, bit for bit, on both kernels."""

    @staticmethod
    def batch(seed, n_flows, weights):
        """A reduced digraph and ``n_flows`` flow instances on it: random
        terminal sets, some of zero capacity, on edge weights with a ratio
        of 1e14, a subnormal one, or neither."""
        g = np.random.default_rng(seed)
        h = random_hypergraph(g, max_n=7, max_m=5)
        special = {
            "wide": [Fraction(1, 10**7), Fraction(10**7)], "subnormal": [Fraction(3, 2**1074)]
        }
        edges = [
            (e.tail, e.head, w)
            for e, w in zip(h.edges, [*special.get(weights, []), *(e.weight for e in h.edges)])
        ]
        h = make_h(h.n, edges, h.vertex_weights)
        rd = reduce_to_digraph(h)
        insts = []
        for _ in range(n_flows):
            sources = g.choice(h.n, int(g.integers(0, h.n + 1)), replace=False)
            sinks = g.choice(h.n, int(g.integers(0, h.n + 1)), replace=False)
            scale = 0.0 if g.random() < 0.1 else 10.0 ** g.uniform(-3, 3)
            caps = [scale * g.uniform(0, 2, len(side)) for side in (sources, sinks)]
            insts.append(build_flow_instance(rd, sources, caps[0], sinks, caps[1]))
        return rd, insts

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 60),
        st.sampled_from(["plain", "wide", "subnormal"]),
        st.sampled_from(["below", "at", "above", "none"]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_batch_equals_flows_one_at_a_time(self, seed, n_flows, weights, stop_at):
        rd, insts = self.batch(seed, n_flows, weights)
        singles = [bits(_maxflow_py.max_flow_arrays(*instance_args(inst))) for inst in insts]
        values = [float.fromhex(value) for value, _, _ in singles]
        stop = math.inf
        if stop_at != "none":
            value = values[np.random.default_rng(seed).integers(n_flows)]
            stop = {"below": math.nextafter(value, -math.inf), "at": value}.get(
                stop_at, math.nextafter(value, math.inf)
            )
        # up to and including the first flow whose value is not below stop
        solved = next((f + 1 for f, value in enumerate(values) if not value < stop), n_flows)
        terminals = [(i.sources, i.source_caps, i.sinks, i.sink_caps) for i in insts]
        eps = [flow_tolerance(inst) for inst in insts]
        s = rd.num_vertices
        for kernel in KERNELS:
            got = kernel.max_flow_arrays(s + 2, *rd.flow_arcs, s, s + 1, eps, terminals, stop)
            assert [value.hex() for value in got[0].tolist()] == [v for v, _, _ in singles[:solved]]
            assert got[2].tolist() == [reach for _, _, reach in singles[:solved]]
            assert [f.hex() for f in got[1].tolist()] == singles[solved - 1][1]
        results = max_flows(insts, stop)
        assert [bits((r.value, [], r.reachable)) for r in results] == [
            (value, [], reach) for value, _, reach in singles[:solved]
        ]
        assert [r.arc_flow is None for r in results] == [True] * (solved - 1) + [False]

    def test_no_flow_after_the_stop_is_solved(self, monkeypatch):
        # the reference kernel solves flows until the first at the stop value
        _, insts = self.batch(1, 8, "plain")
        solves = []
        real = _maxflow_py._solve
        monkeypatch.setattr(_maxflow_py, "_solve", lambda *a: solves.append(1) or real(*a))
        monkeypatch.setattr(flownet, "max_flow_arrays", _maxflow_py.max_flow_arrays)
        values = [max_flow(inst).value for inst in insts]
        assert len(solves) == 8 and len(set(values)) > 2
        for first in range(8):
            stop = values[first]
            want = next(f for f, value in enumerate(values) if not value < stop) + 1
            solves.clear()
            assert len(max_flows(insts, stop)) == len(solves) == want

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "terminals, eps",
        [
            ([([0], [1.0], [1], [1.0]), ([0], [], [1], [1.0])], [1e-12] * 2),
            ([([0], [1.0], [1], [1.0])], [1e-12] * 2),
            ([], []),
            ([([0], [1.0], [4], [1.0])], [1e-12]),
        ],
        ids=["capacity_missing", "tolerance_extra", "no_flow", "vertex_out_of_range"],
    )
    def test_bad_batch_raises(self, kernel, terminals, eps):
        # flows over one arc 0 -> 1 of a 4-node net, s = 2, t = 3
        with pytest.raises((ValueError, IndexError)):
            kernel.max_flow_arrays(4, [0], [1], [1.0], 2, 3, eps, terminals)

    def test_a_batch_shares_one_digraph(self):
        _, rd = simple_instance()
        other = reduce_to_digraph(make_h(3, [({0}, {2}, 1)]))
        with pytest.raises(ValueError, match="one reduced digraph"):
            max_flows([build_flow_instance(r, [0], [1.0], [2], [1.0]) for r in (rd, other)])


def simple_instance():
    # e0 = ({a}, {b}) w=2, e1 = ({a, b}, {c}) w=3
    h = make_h(3, [({0}, {1}, 2), ({0, 1}, {2}, 3)])
    rd = reduce_to_digraph(h)
    return h, rd


class TestFlowInstance:
    def test_capacities_halved_on_edge_arcs(self):
        h, rd = simple_instance()
        cap = concatenated_arcs(build_flow_instance(rd, [0], [10.0], [2], [10.0]))[3]
        edge_caps = [cap[k] for k in rd.edge_arc_index]
        assert edge_caps == [1.0, 1.5]
        gadget_caps = {
            cap[k]
            for k in range(len(rd.arcs))
            if k not in set(rd.edge_arc_index)
        }
        assert gadget_caps == {float(rd.big_weight)}

    def test_source_sink_arcs(self):
        h, rd = simple_instance()
        inst = build_flow_instance(rd, [0, 1], [2.0, 1.0], [2], [4.0])
        assert inst.source_total == 3.0
        assert inst.sink_total == 4.0
        _, arc_from, arc_to, *_ = concatenated_arcs(inst)
        assert arc_from[-1] == 2 and arc_to[-1] == inst.t

    def test_terminal_order_does_not_matter(self, rng):
        # capacities over sixteen decades, so that the order of summing
        # them shows in the totals' last bits
        h = generate(GeneratorSpec(n=24, m=60, kappa=2, model="uniform-random", seed=1))
        rd = reduce_to_digraph(h)
        for _ in range(20):
            order = rng.permutation(h.n)
            k = int(rng.integers(1, h.n))
            sources, sinks = order[:k], order[k:]
            source_caps = 10.0 ** rng.uniform(-8, 8, len(sources))
            sink_caps = 10.0 ** rng.uniform(-8, 8, len(sinks))
            want = build_flow_instance(rd, sources, source_caps, sinks, sink_caps)
            by_source, by_sink = np.argsort(sources), np.argsort(sinks)
            assert want.sources.tolist() == sorted(sources.tolist())
            assert want.sinks.tolist() == sorted(sinks.tolist())
            # summed one at a time in vertex order
            assert want.source_total == sum(source_caps[by_source].tolist())
            assert want.sink_total == sum(sink_caps[by_sink].tolist())
            for p, q in ((by_source, by_sink), (rng.permutation(k), rng.permutation(h.n - k))):
                got = build_flow_instance(rd, sources[p], source_caps[p], sinks[q], sink_caps[q])
                for name in ("sources", "source_caps", "sinks", "sink_caps"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
                    assert getattr(got, name).dtype == getattr(want, name).dtype
                assert (got.source_total, got.sink_total) == (want.source_total, want.sink_total)
                assert flow_tolerance(got) == flow_tolerance(want)

    @pytest.mark.parametrize("reversed_h", [False, True])
    def test_edge_arcs_carry_the_incidence_capacities(self, rng, reversed_h):
        # each edge arc carries float(w_e) / 2, as Incidence.capacities
        # holds it, on random hypergraphs and on weights from a subnormal
        # one to a ratio of 1e14
        tiny, huge = Fraction(3, 2**1074), Fraction(10**14)
        hs = [random_hypergraph(rng, max_n=9, max_m=8) for _ in range(30)]
        hs.append(make_h(3, [({0}, {1}, tiny), ({1, 2}, {0}, huge), ({2}, {1}, Fraction(1, 3))]))
        for h in hs:
            h = reverse(h) if reversed_h else h
            rd = reduce_to_digraph(h)
            cap = rd.flow_arcs[2]
            edge_arcs = list(rd.edge_arc_index)
            assert cap[edge_arcs].tolist() == [float(e.weight) / 2.0 for e in h.edges]
            gadget = np.delete(cap, edge_arcs)
            assert gadget.tolist() == [float(rd.big_weight)] * len(gadget)
            assert cap.dtype == np.float64 and not cap.flags.writeable


class TestLiftFlow:
    def test_single_pair_direct(self):
        h = make_h(2, [({0}, {1}, 2)])
        rd = reduce_to_digraph(h)
        inst = build_flow_instance(rd, [0], [1.0], [1], [1.0])
        res = max_flow(inst)
        fa = lift_flow(res, inst)
        assert dict(((e, i, j), f) for e, i, j, f in fa) == pytest.approx(
            {(0, 0, 1): 1.0}
        )

    def test_two_tails_single_head_proportional(self):
        h = make_h(3, [({0, 1}, {2}, 2)])
        rd = reduce_to_digraph(h)
        inst = build_flow_instance(rd, [0, 1], [0.3, 0.7], [2], [1.0])
        res = max_flow(inst)
        fa = lift_flow(res, inst)
        vals = {(i, j): f for _, i, j, f in fa}
        assert vals[(0, 2)] == pytest.approx(0.3)
        assert vals[(1, 2)] == pytest.approx(0.7)

    def test_product_split_marginals(self, rng):
        # inflows (0.5, 0.5), outflows (0.25, 0.75): product split
        h = make_h(4, [({0, 1}, {2, 3}, 2)])
        rd = reduce_to_digraph(h)
        inst = build_flow_instance(rd, [0, 1], [0.5, 0.5], [2, 3], [0.25, 0.75])
        res = max_flow(inst)
        fa = lift_flow(res, inst)
        vals = {(i, j): f for _, i, j, f in fa}
        assert vals[(0, 2)] == pytest.approx(0.5 * 0.25)
        assert vals[(1, 3)] == pytest.approx(0.5 * 0.75)
        for i, inflow in ((0, 0.5), (1, 0.5)):
            assert sum(f for (a, _), f in vals.items() if a == i) == pytest.approx(inflow, abs=1e-9)
        for j, outflow in ((2, 0.25), (3, 0.75)):
            assert sum(f for (_, b), f in vals.items() if b == j) == pytest.approx(outflow, abs=1e-9)

    def test_random_marginals(self, rng):
        for _ in range(40):
            h = random_hypergraph(rng, max_n=6, max_m=4)
            rd = reduce_to_digraph(h)
            left = [0]
            right = [h.n - 1]
            source_caps = [float(rng.uniform(0.2, 2.0)) for _ in left]
            sink_caps = [float(rng.uniform(0.2, 2.0)) for _ in right]
            inst = build_flow_instance(rd, left, source_caps, right, sink_caps)
            res = max_flow(inst)
            fa = lift_flow(res, inst)
            for e_idx, tot in per_edge_totals(fa).items():
                assert tot <= float(h.edges[e_idx].weight) / 2.0 + 1e-9


    def test_conservation_checked_where_the_edge_arc_carries_nothing(self):
        # e1's edge arc carries 0 while its tail arc from vertex 0 carries
        # 0.5: the edge has an arc with flow, so its check still runs
        h, rd = simple_instance()
        inst = build_flow_instance(rd, [0], [1.0], [2], [1.0])
        flow = np.zeros(len(concatenated_arcs(inst)[3]))
        flow[rd.edge_arc_index[1] + 1] = 0.5
        res = MaxFlowResult(0.5, flow, np.zeros(inst.num_nodes, dtype=bool))
        with pytest.raises(ArithmeticError, match="violated at edge 1: in=0.5 mid=0 out=0"):
            lift_flow(res, inst)
        with pytest.raises(ArithmeticError, match="violated at edge 1"):
            loop_lift_flow(res, inst)


def random_entries(rng, n, count):
    """(i, j, f) with i and j drawn from [0, n), so vertex 0 and i == j
    occur, and f of mixed sign over 16 decades, so the order of the
    additions shows in the last bits."""
    i = rng.integers(0, n, count).tolist()
    j = rng.integers(0, n, count).tolist()
    f = (rng.standard_normal(count) * 10.0 ** rng.integers(-8, 8, count)).tolist()
    return list(zip(i, j, f))


class TestMatchesLoopReferences:
    """F, D and sum f_p T_p built by one scatter, and the lift over the
    flow-carrying edges, equal the per-entry loops to the bit."""

    def test_empty_inputs_are_float_zeros(self):
        for got in (
            flow_matrix(FlowAssignment.of(()), 4),
            demand_matrix({}, 4),
            mapping_triangle_sum({}, 4),
        ):
            assert got.dtype == np.float64 and np.array_equal(got, np.zeros((4, 4)))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    def test_random_entries(self, rng, n):
        for _ in range(25):
            entries = random_entries(rng, n, int(rng.integers(0, 40)))
            fa = FlowAssignment.of((e, i, j, f) for e, (i, j, f) in enumerate(entries))
            demand = {(i, j): f for i, j, f in entries}
            # distinct triangles as make() builds them, plus repeated
            # vertices that TriangleId itself admits
            triangles = {
                TriangleId(i, j, mid): f
                for (i, j, f), mid in zip(entries, rng.integers(0, n, len(entries)).tolist())
            }
            for got, want in (
                (flow_matrix(fa, n), loop_flow_matrix(fa, n)),
                (demand_matrix(demand, n), loop_demand_matrix(demand, n)),
                (mapping_triangle_sum(triangles, n), loop_triangle_matrix_sum(triangles, n)),
            ):
                assert got.dtype == np.float64 and np.array_equal(got, want)

    @pytest.mark.parametrize("instance", ["unit_cycle", "expander_n128"])
    def test_lifted_flows(self, rng, instance):
        if instance == "unit_cycle":
            h = parse_dhg(THREE_CYCLE)
        else:
            h = generate(GeneratorSpec(n=128, m=256, kappa=2, model="expander-like", seed=3))
        rd = reduce_to_digraph(h)
        n = h.n
        for _ in range(6):
            order = rng.permutation(n).tolist()
            k = int(rng.integers(1, n))
            sources, sinks = order[:k], order[k:]
            source_caps = [float(rng.uniform(0.1, 2.0)) for _ in sources]
            sink_caps = [float(rng.uniform(0.1, 2.0)) for _ in sinks]
            inst = build_flow_instance(rd, sources, source_caps, sinks, sink_caps)
            res = max_flow(inst)
            fa = lift_flow(res, inst)
            assert len(fa) and list(fa) == list(loop_lift_flow(res, inst))
            assert np.array_equal(flow_matrix(fa, n), loop_flow_matrix(fa, n))
            dec = decompose(fa, sources, sinks)
            tri = dec.triangle_weights
            assert np.array_equal(mapping_triangle_sum(tri, n), loop_triangle_matrix_sum(tri, n))
            assert np.array_equal(demand_matrix(dec.demand, n), loop_demand_matrix(dec.demand, n))

    def test_out_of_range_vertex_raises(self):
        with pytest.raises(IndexError):
            flow_matrix(FlowAssignment.of([(0, 1, 3, 1.0)]), 3)
        with pytest.raises(IndexError):
            mapping_triangle_sum({TriangleId(-1, 1, 2): 1.0}, 3)


class TestFlowMatrix:
    def test_zero_flow_zero_matrix(self):
        assert np.all(flow_matrix(FlowAssignment.of(()), 4) == 0.0)

    def test_unit_flow_is_mat_a(self):
        fa = FlowAssignment.of([(0, 1, 2, 1.0)])
        assert np.array_equal(flow_matrix(fa, 4), mat_A(4, 1, 2))

    def test_dot_equals_distance_sum(self, rng):
        h = random_hypergraph(rng, n=5, m=4)
        st = normalized_state(rng, h)
        values = []
        for e_idx, e in enumerate(h.edges):
            for i in sorted(e.tail):
                for j in sorted(e.head):
                    values.append((e_idx, i, j, float(rng.uniform(0, 1))))
        fa = FlowAssignment.of(values)
        f = flow_matrix(fa, 5)
        direct = sum(v * directed_distance(st.vectors, i, j) for _, i, j, v in values)
        assert float(np.tensordot(f, gram(st))) == pytest.approx(direct, abs=1e-10 * max(1, abs(direct)))

    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(*[st.integers(0, n - 1)] * 2), min_size=1, max_size=6),
            )
        ),
        # (edge, index into the pairs, log10 of the flow)
        st.lists(st.tuples(*[st.integers(0, 5)] * 2, st.floats(-200, 200)), max_size=40),
    )
    @example((3, [(0, 1), (2, 0)]), [(0, 0, -8.0), (1, 1, 0.0)])
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_ones_kernel(self, pairs, entries):
        # (i, j) pairs repeated on several edges, with flows from 1e-200 to
        # 1e200: mat_A's three squared differences each have zero row sums,
        # so F 1 is rounding of the flows' own scale.  max|F| bounds that
        # scale (each entry adds at least 2 f to the trace) unless an entry
        # is (e, i, 0) or (e, i, i): its mat_A is zero, and its cancelling
        # cells can leave a residue above 1e-9 max|F| where the other flows
        # are 1e8 times smaller
        n, pairs = pairs
        fa = FlowAssignment.of((e, *pairs[k % len(pairs)], 10.0**x) for e, k, x in entries)
        f = flow_matrix(fa, n)
        gap = np.abs(f @ np.ones(n)).max()
        assert gap <= 1e-12 * fa.values.sum()
        _, i, j = fa.keys.T
        if not np.count_nonzero((j == 0) | (i == j)):
            assert gap <= 1e-9 * np.abs(f).max()


class TestDecompose:
    def test_two_hop_path_paper_identity(self):
        # unit flow along (0, 1, 2): one triangle anchored at the source,
        # demand on the endpoints, and A_01 + A_12 = T + A_02 as matrices
        fa = FlowAssignment.of([(0, 0, 1, 1.0), (1, 1, 2, 1.0)])
        dec = decompose(fa, sources=[0], sinks=[2])
        assert dec.demand == pytest.approx({(0, 2): 1.0})
        assert len(dec.triangle_weights) == 1
        (tri, weight), = dec.triangle_weights.items()
        assert weight == pytest.approx(1.0)
        assert (tri.a, tri.b, tri.mid) == (0, 2, 1)
        n = 3
        lhs = mat_A(n, 0, 1) + mat_A(n, 1, 2)
        rhs = mapping_triangle_sum(dec.triangle_weights, n) + mat_A(n, 0, 2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_single_hop_pure_demand(self):
        fa = FlowAssignment.of([(0, 0, 1, 0.6)])
        dec = decompose(fa, sources=[0], sinks=[1])
        assert dec.triangle_weights == {}
        assert dec.demand == pytest.approx({(0, 1): 0.6})
        assert dec.dropped_cycle_mass == 0.0

    def test_cycle_dropped(self):
        fa = FlowAssignment.of(
            [(0, 0, 1, 1.0), (1, 1, 2, 0.5), (2, 2, 1, 0.5), (3, 1, 3, 1.0)]
        )
        # 1 -> 2 -> 1 is a circulation on top of the 0 -> 1 -> 3 path
        dec = decompose(fa, sources=[0], sinks=[3])
        assert dec.demand == pytest.approx({(0, 3): 1.0})
        assert dec.dropped_cycle_mass == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [10, 40])
    def test_scaled_flow_decomposes_scaled(self, rng, k):
        # a flow times 2^-k decomposes into the same paths, each weight
        # and demand times 2^-k exactly; no tolerance is absolute
        for _ in range(20):
            h = random_hypergraph(rng, max_n=8, max_m=5)
            left = [0]
            right = list(range(1, h.n))
            source_caps = [float(rng.uniform(0.2, 3.0))]
            sink_caps = [float(rng.uniform(0.2, 3.0)) for _ in right]
            inst = build_flow_instance(reduce_to_digraph(h), left, source_caps, right, sink_caps)
            fa = lift_flow(max_flow(inst), inst)
            dec = decompose(fa, left, right)
            small = decompose(FlowAssignment(fa.keys, fa.values * 2.0**-k), left, right)
            for part in ("triangle_weights", "demand", "dropped_pairs"):
                want = {key: f * 2.0**-k for key, f in getattr(dec, part).items()}
                assert getattr(small, part) == want

    def test_random_reconstruction(self, rng):
        for _ in range(40):
            h = random_hypergraph(rng, max_n=8, max_m=5)
            rd = reduce_to_digraph(h)
            left = sorted(
                int(v) for v in rng.choice(h.n, size=max(1, h.n // 3), replace=False)
            )
            right = [v for v in range(h.n) if v not in left]
            if not right:
                continue
            source_caps = [float(rng.uniform(0.2, 3.0)) for _ in left]
            sink_caps = [float(rng.uniform(0.2, 3.0)) for _ in right]
            inst = build_flow_instance(rd, left, source_caps, right, sink_caps)
            res = max_flow(inst)
            fa = lift_flow(res, inst)
            dec = decompose(fa, left, right)
            assert decomposition_matrix_identity_gap(fa, dec, h.n) <= 1e-9
            # demand support within sources x sinks
            for (i, j) in dec.demand:
                assert i in left and j in right
            assert dec.total_demand() == pytest.approx(res.value, abs=1e-8 * max(1, res.value))


class TestDemandMatrix:
    def test_zero_demand(self):
        assert np.all(demand_matrix({}, 3) == 0.0)
        assert demand_norm_bound({}) == 0.0

    def test_single_pair_bound(self, rng):
        for i, j in ((1, 2), (0, 3), (2, 0)):
            d = {(i, j): 1.0}
            assert spectral_norm(demand_matrix(d, 4)) <= demand_norm_bound(d) + 1e-12

    def test_random_demand_norm_bound(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 11))
            d = {}
            for _ in range(int(rng.integers(1, 2 * n))):
                i, j = rng.choice(n, size=2, replace=False)
                d[(int(i), int(j))] = d.get((int(i), int(j)), 0.0) + float(rng.uniform(0, 2))
            assert spectral_norm(demand_matrix(d, n)) <= demand_norm_bound(d) + 1e-9


class TestCapacityDuality:
    def test_zero_flow(self, rng):
        h = random_hypergraph(rng, n=4, m=3)
        st = normalized_state(rng, h)
        assert capacity_duality_check(FlowAssignment.of(()), st, h)

    def test_saturated_single_edge_equality(self):
        h = make_h(2, [({0}, {1}, 2)])
        from conftest import integral_state

        st = integral_state(h, {0})
        fa = FlowAssignment.of([(0, 0, 1, 1.0)])  # saturates c_e = w_e / 2
        f_dot = sum(f * directed_distance(st.vectors, i, j) for _, i, j, f in fa)
        d_e = max(0.0, directed_distance(st.vectors, 0, 1))
        assert f_dot == pytest.approx(float(h.edges[0].weight) / 2.0 * d_e, abs=1e-10)
        assert capacity_duality_check(fa, st, h)

    def test_random_capacity_respecting_flows(self, rng):
        for _ in range(300):
            h = random_hypergraph(rng, max_n=6, max_m=4)
            st = normalized_state(rng, h)
            values = []
            for e_idx, e in enumerate(h.edges):
                pairs = [(i, j) for i in sorted(e.tail) for j in sorted(e.head)]
                raw = rng.uniform(0, 1, size=len(pairs))
                cap = float(e.weight) / 2.0
                total = raw.sum()
                if total > 0:
                    raw = raw * (cap * float(rng.uniform(0, 1)) / total)
                for (i, j), f in zip(pairs, raw):
                    values.append((e_idx, i, j, float(f)))
            assert capacity_duality_check(FlowAssignment.of(values), st, h)
