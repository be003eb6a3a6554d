"""Data model, text I/O, cut evaluation, and the digraph reduction."""

import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperspars.hypergraph import (
    DhgParseError,
    DirectedHypergraph,
    Hyperedge,
    evaluate_cut,
    evaluate_cuts,
    expansion,
    out_closure,
    parse_dhg,
    reduce_to_digraph,
    reverse,
    serialize_dhg,
    sparsity,
    weighted_degrees,
)

from hyperspars.driver import _singleton_baseline
from hyperspars.sdpcore import mat_K

from conftest import make_h, random_hypergraph
from witnesses import (
    back_map,
    digraph_cut_weight,
    head_node,
    out_cut,
    restrict_subset,
    scan_expansion,
    scan_out_closure,
    scan_out_cut,
    scan_singleton_baseline,
    scan_sparsity,
    scan_weighted_degrees,
    tail_node,
    transform_subset,
    weight_of,
)

TOY = "dhg 2 1\nv 1 1\nv 2 1\ne 3 T 1 H 2\n"


class TestParse:
    def test_toy_roundtrip_fields(self):
        h = parse_dhg(TOY)
        assert (h.n, h.m, h.r, h.total_weight) == (2, 1, 2, 2)
        assert h.edges[0].weight == 3

    def test_bytes_input(self):
        assert parse_dhg(TOY.encode()).n == 2

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\ndhg 2 1\nv a 1  # vertex\nv b 1\ne 1/2 T a H b\n"
        h = parse_dhg(text)
        assert h.edges[0].weight == Fraction(1, 2)

    def test_decimal_weights(self):
        h = parse_dhg("dhg 2 1\nv a 1\nv b 1\ne 0.25 T a H b\n")
        assert h.edges[0].weight == Fraction(1, 4)
        assert "e 1/4 T a H b" in serialize_dhg(h)

    def test_empty_head_rejected(self):
        with pytest.raises(DhgParseError) as exc:
            parse_dhg("dhg 2 1\nv a 1\nv b 1\ne 1 T a H\n")
        assert exc.value.lineno == 4

    def test_skewness_above_n_rejected(self):
        with pytest.raises(DhgParseError):
            parse_dhg("dhg 2 1\nv a 3\nv b 1\ne 1 T a H b\n")

    def test_zero_weight_vertex_rejected(self):
        with pytest.raises(DhgParseError):
            parse_dhg("dhg 2 1\nv a 0\nv b 1\ne 1 T a H b\n")

    def test_unknown_vertex_rejected(self):
        with pytest.raises(DhgParseError):
            parse_dhg("dhg 2 1\nv a 1\nv b 1\ne 1 T a H c\n")

    def test_bad_header(self):
        with pytest.raises(DhgParseError):
            parse_dhg("dig 2 1\n")

    def test_serialize_sorts_vertices(self):
        h = parse_dhg("dhg 2 1\nv z 1\nv a 1\ne 1 T z H a\n")
        text = serialize_dhg(h)
        lines = text.splitlines()
        assert lines[1] == "v a 1"
        assert lines[2] == "v z 1"

    def test_parse_serialize_identity_on_canonical(self, rng):
        for _ in range(25):
            h = random_hypergraph(rng)
            canon = serialize_dhg(h)
            assert serialize_dhg(parse_dhg(canon)) == canon

    @given(st.integers(2, 6), st.integers(0, 4), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_roundtrip_property(self, n, m, seed):
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, n=n, m=max(m, 1))
        canon = serialize_dhg(h)
        again = parse_dhg(canon)
        assert serialize_dhg(again) == canon
        assert again.total_weight == h.total_weight


class TestSparsity:
    def test_single_edge_tail_side(self):
        h = parse_dhg(TOY)
        assert sparsity(h, {0}) == 3

    def test_single_edge_head_side(self):
        h = parse_dhg(TOY)
        assert sparsity(h, {1}) == 0

    def test_two_tail_example_against_enumeration(self):
        # e = ({a, b}, {c}), w = 2: check S = {a} against a direct
        # re-evaluation of the definition over all six proper subsets
        h = make_h(3, [({0, 1}, {2}, 2)])
        assert sparsity(h, {0}) == 1

        def brute(subset):
            inside = set(subset)
            cut = Fraction(0)
            for e in h.edges:
                if e.tail & inside and (e.head - inside):
                    cut += e.weight
            ws = sum(h.vertex_weights[i] for i in inside)
            return cut / (ws * (h.total_weight - ws))

        for mask in range(1, 7):
            s = {v for v in range(3) if mask >> v & 1}
            assert sparsity(h, s) == brute(s)

    def test_improper_subset_rejected(self):
        h = parse_dhg(TOY)
        with pytest.raises(ValueError):
            sparsity(h, set())
        with pytest.raises(ValueError):
            sparsity(h, {0, 1})

    def test_scale_covariance(self, rng):
        for _ in range(15):
            h = random_hypergraph(rng, n=5)
            lam = Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 5)))
            scaled = DirectedHypergraph(
                h.names,
                h.vertex_weights,
                tuple(Hyperedge(e.tail, e.head, e.weight * lam) for e in h.edges),
            )
            for mask in range(1, 2**5 - 1):
                s = {v for v in range(5) if mask >> v & 1}
                assert sparsity(scaled, s) == lam * sparsity(h, s)


class TestExpansion:
    def test_single_edge_both_sides(self):
        h = parse_dhg(TOY)
        assert expansion(h, {0}) == (1, 0, 0)
        assert expansion(h, {1}) == (0, 1, 0)

    def test_two_tail_head_side(self):
        h = make_h(3, [({0, 1}, {2}, 2)])
        assert expansion(h, {2}) == (0, 1, 0)

    def test_ignores_file_weights(self):
        light = make_h(2, [({0}, {1}, 3)], weights=[1, 1])
        heavy = make_h(2, [({0}, {1}, 3)], weights=[1, 2])
        assert expansion(light, {0}) == expansion(heavy, {0})

    def test_zero_degree_subset_rejected(self):
        h = make_h(3, [({0}, {1}, 1)])
        with pytest.raises(ValueError):
            expansion(h, {2})


class TestEvaluateCut:
    def test_matches_sparsity_and_expansion(self, rng):
        for _ in range(20):
            h = random_hypergraph(rng, n=5)
            for mask in range(1, 2**5 - 1):
                s = frozenset(v for v in range(5) if mask >> v & 1)
                cut = evaluate_cut(h, s)
                assert cut.sparsity == sparsity(h, s)
                try:
                    phi_p, phi_m, _ = expansion(h, s)
                except ValueError:
                    phi_p = phi_m = Fraction(0)
                assert (cut.phi_plus, cut.phi_minus) == (phi_p, phi_m)

    def test_zero_degree_subset_has_zero_expansions(self):
        h = make_h(3, [({0}, {1}, 1)])
        cut = evaluate_cut(h, {2})
        assert (cut.sparsity, cut.phi_plus, cut.phi_minus) == (0, 0, 0)

    @pytest.mark.parametrize("subset", [set(), {0, 1, 2}, {-1}, {0, -3}, {3}])
    def test_improper_or_out_of_range_subset_rejected(self, subset):
        # -1 must not wrap around to the last vertex
        h = make_h(3, [({0}, {1}, 1)])
        with pytest.raises(ValueError):
            evaluate_cut(h, subset)
        with pytest.raises(ValueError):
            evaluate_cuts(h, [{0}, subset])


@st.composite
def hypergraphs(draw):
    """Small DHGs with tails and heads drawn independently, so they may
    overlap, and weights that include 0 and values past int64."""
    n = draw(st.integers(2, 6))
    vertices = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n)
    weight = st.one_of(
        st.fractions(min_value=0, max_value=8, max_denominator=4),
        st.sampled_from([Fraction(0), Fraction(5 * 10**18), Fraction(1, 1000003)]),
    )
    edges = draw(st.lists(st.tuples(vertices, vertices, weight), max_size=6))
    omega = draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    return make_h(n, edges, weights=omega)


def expansion_or_error(evaluate, h, s):
    try:
        return evaluate(h, s)
    except ValueError:
        return "undefined"


class TestIncidenceAgainstScan:
    """Every cut question answered from the incidence equals the frozenset
    scan with exact Fraction sums that ``witnesses`` keeps."""

    @given(hypergraphs())
    @example(make_h(3, []))
    @example(make_h(3, [({0}, {1}, 0), ({1}, {2}, 0), ({2}, {0}, 1)]))
    @example(make_h(3, [({0, 1}, {1, 2}, 2), ({2}, {2, 0}, Fraction(1, 3))]))
    @example(make_h(4, [({k}, {(k + 1) % 4}, Fraction(1, 1000003 + 30 * k)) for k in range(4)]))
    @example(make_h(2, [({0}, {1}, 5 * 10**18), ({1}, {0}, 5 * 10**18)]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_witness(self, h):
        for g in (h, reverse(h)):
            assert weighted_degrees(g) == list(scan_weighted_degrees(g))
            for mask in range(2**g.n):
                s = frozenset(v for v in range(g.n) if mask >> v & 1)
                assert out_cut(g, s) == scan_out_cut(g, s)
                assert out_closure(g, s) == scan_out_closure(g, s)
                if 0 < len(s) < g.n:
                    assert sparsity(g, s) == scan_sparsity(g, s)
                    assert expansion_or_error(expansion, g, s) == expansion_or_error(
                        scan_expansion, g, s
                    )


# components {0, 1} -> {2, 3}: the closures of 2 and 3 are both {2, 3},
# proper, and the first zero-sparsity candidate is closure(2); the
# zero-weight edge 3 -> 0 is no closure edge
DAG_LIKE = make_h(
    4,
    [({0}, {1}, 1), ({1}, {0}, 2), ({1}, {2}, 1), ({2}, {3}, 3), ({3}, {2}, 1), ({3}, {0}, 0)],
    weights=[1, 2, 1, 3],
)
# 5e18 over the denominator 1000003 overflows int64
WIDE_WEIGHTS = make_h(3, [({0}, {1}, 5 * 10**18), ({1}, {0, 2}, Fraction(1, 1000003))])
# 0's closure {0, 1} is proper and 2's spans V: the scan stops at v = 0
# before it reads whether 2's closure is proper
LATER_FULL = make_h(3, [({0}, {1}, 1), ({1}, {0}, 1), ({2}, {0}, 1)])


class TestFullClosures:
    """Where 0's closure spans V, v's does exactly when it holds 0; where it
    is proper, the baseline's scan ends at v = 0 on sparsity 0.  So two
    closure searches from vertex 0 are all the baseline needs."""

    @given(hypergraphs())
    @example(DAG_LIKE)
    @example(make_h(3, [({0}, {1}, 1), ({1}, {2}, 1), ({2}, {0}, 1)]))
    @example(make_h(3, [({0}, {1, 2}, 1), ({1}, {0}, 0), ({2}, {1}, 1)]))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_two_searches_from_0_find_them(self, h):
        for g in (h, reverse(h)):
            if len(scan_out_closure(g, {0})) < g.n:
                assert scan_singleton_baseline(g).sparsity == 0
                continue
            reach_0 = out_closure(reverse(g), {0})
            for v in range(g.n):
                assert (len(scan_out_closure(g, {v})) == g.n) == (v in reach_0)


class TestBatchedBaseline:
    """The baseline scored in one pass equals one evaluation per candidate."""

    @given(hypergraphs())
    @example(make_h(2, [({0}, {1}, 1)]))
    @example(make_h(4, []))
    @example(make_h(3, [({0}, {1}, 0), ({1}, {2}, 0), ({2}, {0}, 1)]))
    @example(make_h(3, [({0, 1}, {1, 2}, 2), ({2}, {2, 0}, Fraction(1, 3)), ({1}, {1}, 4)]))
    @example(WIDE_WEIGHTS)
    @example(DAG_LIKE)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_scan(self, h):
        for g in (h, reverse(h)):
            assert _singleton_baseline(g) == scan_singleton_baseline(g)

    def test_examples_cover_wide_weights_and_tie_break(self):
        assert WIDE_WEIGHTS.incidence.weights.dtype == object
        assert out_closure(reverse(DAG_LIKE), {0}) == {0, 1}
        assert _singleton_baseline(DAG_LIKE) == evaluate_cut(DAG_LIKE, {2, 3})

    def test_proper_closure_of_0_ends_the_scan(self):
        # no entry of the spanning closures is read past v = 0
        assert out_closure(LATER_FULL, {0}) == {0, 1}
        assert out_closure(LATER_FULL, {2}) == {0, 1, 2}
        cut = _singleton_baseline(LATER_FULL)
        assert cut == evaluate_cut(LATER_FULL, {0, 1}) == scan_singleton_baseline(LATER_FULL)
        assert cut.sparsity == 0

    @given(hypergraphs())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_evaluate_cuts_is_evaluate_cut_per_subset(self, h):
        subsets = [
            {v for v in range(h.n) if mask >> v & 1} for mask in range(1, 2**h.n - 1)
        ]
        assert evaluate_cuts(h, subsets) == [evaluate_cut(h, s) for s in subsets]


class TestCachedDerivedData:
    def test_weighted_degrees_fresh_list(self):
        h = make_h(3, [({0, 1}, {2}, 2), ({2}, {0}, Fraction(1, 3))])
        deg = weighted_degrees(h)
        assert deg == [Fraction(7, 3), 2, Fraction(7, 3)]
        deg[0] = Fraction(99)
        assert weighted_degrees(h) == [Fraction(7, 3), 2, Fraction(7, 3)]
        assert weighted_degrees(h) is not weighted_degrees(h)

    def test_caches_leave_equality_hash_and_pickle_alone(self, rng):
        h = random_hypergraph(rng, n=6, m=5)
        twin = DirectedHypergraph(h.names, h.vertex_weights, h.edges)
        rd, rd_twin = reduce_to_digraph(h), reduce_to_digraph(twin)
        before = pickle.dumps(h), pickle.dumps(rd)
        weighted_degrees(h)
        rd.flow_arcs
        assert h == twin and hash(h) == hash(twin)
        assert rd == rd_twin and hash(rd) == hash(rd_twin)
        assert (pickle.dumps(h), pickle.dumps(rd)) == before
        assert pickle.loads(pickle.dumps(rd)) == rd

    def test_serialization_cached(self, rng):
        h = random_hypergraph(rng, n=6, m=5)
        before = pickle.dumps(h)
        text = serialize_dhg(h)
        assert serialize_dhg(h) is text
        # the property's function, run again, builds the same text afresh
        assert text == DirectedHypergraph.text.func(h)
        assert pickle.dumps(h) == before
        assert serialize_dhg(pickle.loads(before)) == text
        assert serialize_dhg(reverse(h)) == DirectedHypergraph.text.func(reverse(h)) != text

    def test_reverse_and_reduction_built_once(self, rng):
        h = random_hypergraph(rng, n=6, m=5)
        twin = DirectedHypergraph(h.names, h.vertex_weights, h.edges)
        before = pickle.dumps(h)
        hr = reverse(h)
        assert hr is reverse(h) and reverse(hr) is h
        assert hr == DirectedHypergraph(
            h.names, h.vertex_weights, tuple(Hyperedge(e.head, e.tail, e.weight) for e in h.edges)
        )
        assert reduce_to_digraph(h) is reduce_to_digraph(h)
        assert reduce_to_digraph(hr) is reduce_to_digraph(reverse(h))
        assert reduce_to_digraph(h) == reduce_to_digraph(twin)
        assert h == twin and hash(h) == hash(twin)
        assert pickle.dumps(h) == before == pickle.dumps(twin)
        assert pickle.loads(pickle.dumps(hr)) == hr

    def test_reverse_shares_incidence_swapped(self, rng):
        h = random_hypergraph(rng, n=6, m=5)
        inc, rev = h.incidence, reverse(h).incidence
        assert inc is h.incidence and rev.tail is inc.head and rev.head is inc.tail
        assert rev.weights is inc.weights and rev.degrees is inc.degrees
        assert rev.denom == inc.denom
        assert reverse(reverse(h)).incidence is inc
        arrays = (inc.tail.index, inc.tail.ptr, inc.head.index, inc.head.ptr)
        for arr in (*arrays, inc.weights, inc.degrees):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            inc.tail.index[0] = 1

    def test_k_matrix_cached_read_only(self):
        h = make_h(3, [({0}, {1}, 1)], weights=[1, 2, 3])
        k = h.k_matrix
        assert k is h.k_matrix
        assert np.array_equal(k, mat_K(h.vertex_weights))
        with pytest.raises(ValueError):
            k[0, 0] = 0.0

    def test_reverse_builds_k_only_on_use(self, rng):
        # reverse(h) on a fresh h computes K on neither side; each side
        # builds its own on first use, with equal bits, and a reversal made
        # after K was computed shares it
        h = random_hypergraph(rng, n=6, m=5)
        hr = reverse(h)
        assert "k_matrix" not in h.__dict__ and "k_matrix" not in hr.__dict__
        assert np.array_equal(hr.k_matrix, h.k_matrix) and hr.k_matrix is not h.k_matrix
        g = make_h(3, [({0}, {1}, 1)], weights=[1, 2, 3])
        k = g.k_matrix
        assert reverse(g).k_matrix is k

    def test_flow_arcs_capacities(self):
        h = make_h(2, [({0}, {1}, 3)])
        rd = reduce_to_digraph(h)
        arc_from, arc_to, cap = rd.flow_arcs
        assert list(zip(arc_from.tolist(), arc_to.tolist())) == [(u, v) for u, v, _ in rd.arcs]
        assert cap.tolist() == [1.5, 6.0, 6.0]
        assert (arc_from.dtype, arc_to.dtype, cap.dtype) == (np.int32, np.int32, np.float64)
        assert not any(a.flags.writeable for a in rd.flow_arcs)
        assert rd.flow_arcs is rd.flow_arcs


class TestReduction:
    def test_single_hyperedge_counts(self):
        h = make_h(3, [({0, 1}, {2}, 2)])
        rd = reduce_to_digraph(h)
        assert rd.num_vertices == 5
        assert len(rd.arcs) == 4
        assert rd.big_weight == 6

    def test_no_edges(self):
        h = make_h(3, [])
        rd = reduce_to_digraph(h)
        assert rd.num_vertices == 3
        assert rd.arcs == ()

    def test_shared_tail_arc_count(self):
        h = make_h(3, [({0}, {1}, 1), ({0}, {2}, 2)])
        rd = reduce_to_digraph(h)
        assert rd.num_vertices == 3 + 4
        assert len(rd.arcs) == 2 + sum(len(e.tail) + len(e.head) for e in h.edges)
        assert rd.big_weight == 3 * 3

    def test_gadget_vertices_weightless(self):
        h = make_h(3, [({0, 1}, {2}, 2)])
        rd = reduce_to_digraph(h)
        assert rd.vertex_weight(tail_node(rd, 0)) == 0
        assert back_map(rd, head_node(rd, 0)) is None
        assert back_map(rd, 1) == 1


class TestTransformRestrict:
    def test_transform_example(self):
        h = make_h(3, [({0, 1}, {2}, 2)])
        rd = reduce_to_digraph(h)
        lifted = transform_subset(rd, {0})
        assert lifted == {0, tail_node(rd, 0)}
        assert digraph_cut_weight(rd, lifted) == 2

    def test_transform_trivial_sets(self):
        h = make_h(3, [({0, 1}, {2}, 2)])
        rd = reduce_to_digraph(h)
        assert transform_subset(rd, set()) == frozenset()
        full = transform_subset(rd, {0, 1, 2})
        assert full == frozenset(range(5))
        assert digraph_cut_weight(rd, full) == 0

    def test_restrict_preserving(self):
        h = make_h(3, [({0, 1}, {2}, 2)])
        rd = reduce_to_digraph(h)
        lifted = transform_subset(rd, {0})
        subset, flag = restrict_subset(rd, lifted)
        assert subset == {0}
        assert flag

    def test_restrict_orphan_tail_not_preserving(self):
        # the tail gadget alone keeps its edge arc in the digraph cut but
        # restricts to the empty set; preservation fails and the flag says so
        h = make_h(3, [({0, 1}, {2}, 2)])
        rd = reduce_to_digraph(h)
        subset, flag = restrict_subset(rd, {tail_node(rd, 0)})
        assert subset == frozenset()
        assert not flag

    def test_restrict_empty(self):
        h = make_h(3, [({0, 1}, {2}, 2)])
        rd = reduce_to_digraph(h)
        subset, flag = restrict_subset(rd, set())
        assert subset == frozenset()
        assert flag


def hypergraph_cut_weight(h, subset):
    return sum((h.edges[k].weight for k in out_cut(h, subset)), Fraction(0))


class TestFact11Properties:
    def test_transform_preserves_weight_and_cut_exhaustive(self, rng):
        for _ in range(40):
            h = random_hypergraph(rng, max_n=6, max_m=4)
            rd = reduce_to_digraph(h)
            for mask in range(2**h.n):
                s = {v for v in range(h.n) if mask >> v & 1}
                lifted = transform_subset(rd, s)
                assert weight_of(h, s) == sum(rd.vertex_weight(v) for v in lifted)
                assert hypergraph_cut_weight(h, s) == digraph_cut_weight(rd, lifted)

    def test_restriction_never_exceeds_and_flag_is_exact(self, rng):
        # below the gadget weight, the restricted cut never exceeds the
        # digraph cut, and the flag reports exactly the equality cases
        for _ in range(12):
            h = random_hypergraph(rng, max_n=4, max_m=2)
            rd = reduce_to_digraph(h)
            if rd.num_vertices > 12:
                continue
            for mask in range(2**rd.num_vertices):
                t = {v for v in range(rd.num_vertices) if mask >> v & 1}
                dig = digraph_cut_weight(rd, t)
                if dig >= rd.big_weight:
                    continue
                restricted, flag = restrict_subset(rd, t)
                hyp = hypergraph_cut_weight(h, restricted)
                assert hyp <= dig
                assert flag == (hyp == dig)

    def test_gadget_closed_subsets_preserve_exactly(self, rng):
        # equality holds whenever the subset is gadget-closed: no orphan
        # tail node, and the head node present whenever the head is inside
        for _ in range(12):
            h = random_hypergraph(rng, max_n=4, max_m=2)
            rd = reduce_to_digraph(h)
            if rd.num_vertices > 12:
                continue
            for mask in range(2**rd.num_vertices):
                t = {v for v in range(rd.num_vertices) if mask >> v & 1}
                if digraph_cut_weight(rd, t) >= rd.big_weight:
                    continue
                closed = True
                for k, e in enumerate(h.edges):
                    if tail_node(rd, k) in t and not (e.tail & t):
                        closed = False
                    if head_node(rd, k) not in t and e.head <= t:
                        closed = False
                if not closed:
                    continue
                restricted, flag = restrict_subset(rd, t)
                assert flag
                assert hypergraph_cut_weight(h, restricted) == digraph_cut_weight(rd, t)


class TestReverse:
    def test_reverse_swaps_cut_direction(self, rng):
        for _ in range(20):
            h = random_hypergraph(rng, max_n=6)
            hr = reverse(h)
            for mask in range(1, 2**h.n - 1):
                s = {v for v in range(h.n) if mask >> v & 1}
                comp = set(range(h.n)) - s
                assert sparsity(hr, s) == sparsity(h, comp)

    def test_weighted_degrees_invariant(self, rng):
        h = random_hypergraph(rng)
        assert weighted_degrees(h) == weighted_degrees(reverse(h))
