"""Ground-truth brute-force solvers and seeded instance generators.

The brute forces enumerate all proper subsets as bitmasks (guarded at
n = 24) and are exact: candidate minima are located with float arithmetic
and then compared exactly as rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hypergraph import DirectedHypergraph, Hyperedge, weighted_degrees

__all__ = [
    "GeneratorSpec",
    "brute_force_sparsest",
    "brute_force_expansion",
    "generate",
    "BRUTE_FORCE_MAX_N",
]

BRUTE_FORCE_MAX_N = 24
_CHUNK = 1 << 16


def _edge_masks(h: DirectedHypergraph) -> tuple[np.ndarray, np.ndarray]:
    tails = np.array([sum(1 << v for v in e.tail) for e in h.edges], dtype=np.int64)
    heads = np.array([sum(1 << v for v in e.head) for e in h.edges], dtype=np.int64)
    return tails, heads


def _common_numerators(values: list[Fraction]) -> tuple[np.ndarray, int]:
    """Numerators over the least common denominator.

    int64 when twice their total fits, so every subset sum and its double
    stays exact; otherwise Python ints (object dtype), exact at any size.
    """
    denom = math.lcm(*(v.denominator for v in values)) if values else 1
    nums = [int(v * denom) for v in values]
    fits = 2 * sum(nums) <= np.iinfo(np.int64).max
    return np.array(nums, dtype=np.int64 if fits else object), denom


def _subset_members(mask: int, n: int) -> frozenset[int]:
    return frozenset(v for v in range(n) if mask >> v & 1)


def brute_force_sparsest(h: DirectedHypergraph) -> tuple[frozenset[int], Fraction]:
    """Exact minimum directed sparsity over all proper subsets.

    Ties break toward the smallest characteristic bitmask with vertices in
    index order.
    """
    n = h.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force guarded at n <= {BRUTE_FORCE_MAX_N}")
    if n < 2:
        raise ValueError("no proper subsets exist")
    tails, heads = _edge_masks(h)
    nums, _ = _common_numerators([e.weight for e in h.edges])
    omega = np.array(h.vertex_weights, dtype=np.int64)
    total = int(omega.sum())

    best_mask = -1
    best_float = math.inf
    candidates: list[int] = []
    full = (1 << n) - 1
    for lo in range(1, full, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, full), dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)) & 1
        ws = bits @ omega
        crossing = ((masks[:, None] & tails) != 0) & ((~masks[:, None] & heads) != 0)
        cut = crossing @ nums
        val = cut / (ws * (total - ws))
        lo_val = float(val.min())
        if lo_val < best_float * (1 + 1e-9) + 1e-15:
            best_float = min(best_float, lo_val)
            band = val <= best_float * (1 + 1e-9) + 1e-15
            candidates.extend(int(m) for m in masks[band])

    best_val: Fraction | None = None
    for mask in sorted(candidates):
        s = _subset_members(mask, n)
        cut_w = Fraction(0)
        for e in h.edges:
            if not e.tail.isdisjoint(s) and any(v not in s for v in e.head):
                cut_w += e.weight
        ws = h.weight_of(s)
        v = cut_w / (ws * (total - ws))
        if best_val is None or v < best_val:
            best_val = v
            best_mask = mask
    assert best_val is not None
    return _subset_members(best_mask, n), best_val


def brute_force_expansion(h: DirectedHypergraph) -> tuple[frozenset[int], Fraction]:
    """Exact edge expansion: min over light-side subsets of min(phi+, phi-)."""
    n = h.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force guarded at n <= {BRUTE_FORCE_MAX_N}")
    if n < 2:
        raise ValueError("no proper subsets exist")
    tails, heads = _edge_masks(h)
    deg = weighted_degrees(h)
    all_vals = [e.weight for e in h.edges] + deg
    nums, denom = _common_numerators(all_vals)
    w_nums = nums[: h.m]
    deg_nums = nums[h.m :]
    total = int(deg_nums.sum())

    best_float = math.inf
    candidates: list[int] = []
    full = (1 << n) - 1
    for lo in range(1, full, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, full), dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)) & 1
        ws = bits @ deg_nums
        ok = (2 * ws <= total) & (ws > 0)
        if not ok.any():
            continue
        masks = masks[ok]
        bits = bits[ok]
        ws = ws[ok]
        out_cross = ((masks[:, None] & tails) != 0) & ((~masks[:, None] & heads) != 0)
        in_cross = ((~masks[:, None] & tails) != 0) & ((masks[:, None] & heads) != 0)
        phi = np.minimum(out_cross @ w_nums, in_cross @ w_nums) / ws
        lo_val = float(phi.min())
        if lo_val < best_float * (1 + 1e-9) + 1e-15:
            best_float = min(best_float, lo_val)
            band = phi <= best_float * (1 + 1e-9) + 1e-15
            candidates.extend(int(m) for m in masks[band])

    if not candidates:
        raise ValueError("no subset with positive weighted degree and light side")
    best_val: Fraction | None = None
    best_mask = -1
    for mask in sorted(candidates):
        s = _subset_members(mask, n)
        ws = sum((deg[i] for i in s), Fraction(0))
        comp = frozenset(range(n)) - s
        w_out = Fraction(0)
        w_in = Fraction(0)
        for e in h.edges:
            if not e.tail.isdisjoint(s) and any(v not in s for v in e.head):
                w_out += e.weight
            if not e.tail.isdisjoint(comp) and any(v in s for v in e.head):
                w_in += e.weight
        v = min(w_out, w_in) / ws
        if best_val is None or v < best_val:
            best_val = v
            best_mask = mask
    assert best_val is not None
    return _subset_members(best_mask, n), best_val


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for seeded random instances."""

    n: int
    m: int
    r_max: int = 4
    kappa: int = 1
    weight_range: tuple[int, int] = (1, 4)
    model: str = "uniform-random"
    balance: float = 0.5
    inside_w: Fraction | int = 4
    crossing_w: Fraction | str | int = Fraction(1, 20)
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.r_max < 2:
            raise ValueError("need r_max >= 2")
        if not 1 <= self.kappa <= self.n:
            raise ValueError("need 1 <= kappa <= n")
        if self.m < 1:
            raise ValueError("need m >= 1")
        if self.model not in ("uniform-random", "planted-cut", "expander-like"):
            raise ValueError(f"unknown model {self.model!r}")


def _random_edge(rng, verts: np.ndarray, r_max: int, weight: Fraction) -> Hyperedge:
    t_sz = int(rng.integers(1, r_max))
    h_sz = int(rng.integers(1, max(2, r_max - t_sz + 1)))
    t_sz = min(t_sz, len(verts))
    h_sz = min(h_sz, len(verts))
    tail = frozenset(int(v) for v in rng.choice(verts, size=t_sz, replace=False))
    head = frozenset(int(v) for v in rng.choice(verts, size=h_sz, replace=False))
    return Hyperedge(tail, head, weight)


def generate(spec: GeneratorSpec) -> DirectedHypergraph:
    """Seed-deterministic instance from a GeneratorSpec."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    names = tuple(f"v{k}" for k in range(n))
    weights = tuple(int(w) for w in rng.integers(1, spec.kappa + 1, size=n))
    verts = np.arange(n)
    lo, hi = spec.weight_range
    edges: list[Hyperedge] = []

    if spec.model == "uniform-random":
        for _ in range(spec.m):
            w = Fraction(int(rng.integers(lo, hi + 1)))
            edges.append(_random_edge(rng, verts, spec.r_max, w))
    elif spec.model == "planted-cut":
        a_sz = min(max(1, round(spec.balance * n)), n - 1)
        side_a = verts[:a_sz]
        side_b = verts[a_sz:]
        inside = Fraction(spec.inside_w)
        crossing = Fraction(spec.crossing_w)
        n_cross = max(1, spec.m // 6)
        n_back = max(1, spec.m // 6)
        for k in range(spec.m - n_cross - n_back):
            side = side_a if (k % 2 == 0 and len(side_a) >= 2) or len(side_b) < 2 else side_b
            edges.append(_random_edge(rng, side, spec.r_max, inside))
        # cheap forward crossings make the planted side's out-cut light;
        # heavy return edges keep every cut's sparsity positive
        for _ in range(n_cross):
            tail = frozenset({int(rng.choice(side_a))})
            head = frozenset({int(rng.choice(side_b))})
            edges.append(Hyperedge(tail, head, crossing))
        for _ in range(n_back):
            tail = frozenset({int(rng.choice(side_b))})
            head = frozenset({int(rng.choice(side_a))})
            edges.append(Hyperedge(tail, head, inside))
    else:  # expander-like: directed cycle backbone plus random chords
        w = Fraction(int(rng.integers(lo, hi + 1)))
        for k in range(spec.m):
            if k < n:
                u, v = k, (k + 1) % n
            else:
                u = int(rng.integers(0, n))
                v = int(rng.integers(0, n - 1))
                if v >= u:
                    v += 1
            edges.append(Hyperedge(frozenset({u}), frozenset({v}), w))

    return DirectedHypergraph(names, weights, tuple(edges))
