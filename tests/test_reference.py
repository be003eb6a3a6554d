"""Brute-force ground truth and instance generators."""

from fractions import Fraction

import pytest

import numpy as np

from hyperspars.hypergraph import (
    _common_numerators,
    expansion,
    serialize_dhg,
    sparsity,
    weighted_degrees,
)
from hyperspars.reference import (
    GeneratorSpec,
    brute_force_expansion,
    brute_force_sparsest,
    generate,
)

from conftest import make_h, random_hypergraph


class TestBruteForceSparsest:
    def test_single_edge_optimum_zero(self):
        h = make_h(2, [({0}, {1}, 3)])
        s, val = brute_force_sparsest(h)
        assert val == 0
        assert s == {1}

    def test_bidirected_pair(self):
        h = make_h(2, [({0}, {1}, 1), ({1}, {0}, 1)])
        _, val = brute_force_sparsest(h)
        assert val == 1

    def test_planted_cut_recovered(self):
        h = generate(
            GeneratorSpec(
                n=8, m=12, model="planted-cut", balance=0.5,
                inside_w=4, crossing_w=Fraction(1, 20), seed=5,
            )
        )
        s, val = brute_force_sparsest(h)
        planted = frozenset(range(4))
        assert s == planted or val <= sparsity(h, planted)

    def test_matches_exhaustive_fraction_scan(self, rng):
        for _ in range(20):
            h = random_hypergraph(rng, max_n=6, max_m=4)
            s, val = brute_force_sparsest(h)
            best = min(
                sparsity(h, {v for v in range(h.n) if mask >> v & 1})
                for mask in range(1, 2**h.n - 1)
            )
            assert val == best
            assert sparsity(h, s) == val

    def test_relabeling_invariance(self, rng):
        h = random_hypergraph(rng, n=5, m=4)
        perm = [3, 1, 4, 0, 2]
        relabeled = make_h(
            5,
            [
                ({perm[v] for v in e.tail}, {perm[v] for v in e.head}, e.weight)
                for e in h.edges
            ],
            weights=[h.vertex_weights[perm.index(i)] for i in range(5)],
        )
        _, val1 = brute_force_sparsest(h)
        _, val2 = brute_force_sparsest(relabeled)
        assert val1 == val2

    def test_size_guard(self):
        h = make_h(25, [({0}, {1}, 1)])
        with pytest.raises(ValueError):
            brute_force_sparsest(h)


class TestBruteForceExpansion:
    def test_single_edge(self):
        h = make_h(2, [({0}, {1}, 3)])
        _, phi = brute_force_expansion(h)
        assert phi == 0

    def test_every_vertex_in_every_edge(self):
        h = make_h(3, [({0, 1, 2}, {0, 1, 2}, 2)], names=["a", "b", "c"])
        s, phi = brute_force_expansion(h)
        # every proper subset is crossed both ways
        assert phi == min(
            expansion(h, {v for v in range(3) if mask >> v & 1})[2]
            for mask in range(1, 7)
            if sum(mask >> v & 1 for v in range(3)) <= 1
        )

    def test_factor_two_sandwich(self, rng):
        # total * sparsity(S) vs cut / min-side weight agree within factor 2
        for _ in range(15):
            h = random_hypergraph(rng, max_n=6, max_m=4, kappa=1)
            total = h.total_weight
            for mask in range(1, 2**h.n - 1):
                s = {v for v in range(h.n) if mask >> v & 1}
                ws = h.weight_of(s)
                cut = sparsity(h, s) * ws * (total - ws)
                ratio_a = total * sparsity(h, s)
                ratio_b = cut / min(ws, total - ws) if cut else Fraction(0)
                assert ratio_b <= ratio_a <= 2 * ratio_b or cut == 0


def exact_sparsest(h):
    return min(
        sparsity(h, {v for v in range(h.n) if mask >> v & 1})
        for mask in range(1, 2**h.n - 1)
    )


def exact_expansion(h):
    # light side under weighted degrees, as brute_force_expansion defines it
    deg = weighted_degrees(h)
    total = sum(deg)
    best = None
    for mask in range(1, 2**h.n - 1):
        s = {v for v in range(h.n) if mask >> v & 1}
        ws = sum(deg[v] for v in s)
        if ws > 0 and 2 * ws <= total:
            phi = expansion(h, s)[2]
            best = phi if best is None else min(best, phi)
    return best


class TestBeyondInt64:
    """Numerators whose sums do not fit in int64 are summed exactly."""

    def test_four_cycle_large_denominators(self):
        weights = [Fraction(1, d) for d in (1000003, 1000033, 1000037, 1000039)]
        h = make_h(4, [({k}, {(k + 1) % 4}, w) for k, w in enumerate(weights)])
        s, val = brute_force_sparsest(h)
        assert val == exact_sparsest(h) and sparsity(h, s) == val
        s, phi = brute_force_expansion(h)
        assert phi == exact_expansion(h) == Fraction(1000042000117, 4000198001782)
        assert expansion(h, s)[2] == phi

    def test_opposite_arcs_of_weight_5e18(self):
        w = 5 * 10**18
        h = make_h(2, [({0}, {1}, w), ({1}, {0}, w)])
        s, val = brute_force_sparsest(h)
        assert val == exact_sparsest(h) == w and sparsity(h, s) == val
        s, phi = brute_force_expansion(h)
        assert phi == exact_expansion(h) == Fraction(1, 2)

    def test_int64_path_kept_when_sums_fit(self):
        nums, denom = _common_numerators([Fraction(1, 3), Fraction(1, 2)])
        assert nums.dtype == np.int64 and list(nums) == [2, 3] and denom == 6
        nums, _ = _common_numerators([Fraction(5 * 10**18)] * 2)
        assert nums.dtype == object


class TestGenerator:
    def test_seed_determinism(self):
        spec = GeneratorSpec(n=7, m=9, kappa=3, seed=11)
        assert serialize_dhg(generate(spec)) == serialize_dhg(generate(spec))

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(n=7, m=9, kappa=3, seed=1))
        b = generate(GeneratorSpec(n=7, m=9, kappa=3, seed=2))
        assert serialize_dhg(a) != serialize_dhg(b)

    def test_r_max_respected(self, rng):
        for seed in range(60):
            spec = GeneratorSpec(
                n=int(rng.integers(3, 10)),
                m=int(rng.integers(1, 8)),
                r_max=int(rng.integers(2, 6)),
                seed=seed,
            )
            h = generate(spec)
            assert h.r <= spec.r_max

    def test_planted_cut_is_cheap(self):
        spec = GeneratorSpec(
            n=8, m=12, model="planted-cut", balance=0.5,
            inside_w=4, crossing_w=Fraction(1, 100), seed=3,
        )
        h = generate(spec)
        planted = sparsity(h, set(range(4)))
        _, best = brute_force_sparsest(h)
        assert best <= planted
        assert planted < Fraction(1, 10)

    def test_expander_backbone_positive_sparsity(self):
        h = generate(GeneratorSpec(n=6, m=10, model="expander-like", seed=9))
        _, val = brute_force_sparsest(h)
        assert val > 0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(n=1, m=1)
        with pytest.raises(ValueError):
            GeneratorSpec(n=4, m=1, kappa=5)
        with pytest.raises(ValueError):
            GeneratorSpec(n=4, m=1, model="nope")
