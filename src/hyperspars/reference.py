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

from .hypergraph import DirectedHypergraph, Hyperedge, expansion, sparsity

__all__ = [
    "GeneratorSpec",
    "brute_force_sparsest",
    "brute_force_expansion",
    "generate",
    "BRUTE_FORCE_MAX_N",
]

BRUTE_FORCE_MAX_N = 24
_CHUNK = 1 << 16


def _subset_members(mask: int, n: int) -> frozenset[int]:
    return frozenset(v for v in range(n) if mask >> v & 1)


def _scan(h: DirectedHypergraph, chunk_values, exact) -> tuple[frozenset[int], Fraction] | None:
    """The subset of least ``exact`` value (the smallest mask on ties), or
    None.  ``chunk_values(masks, bits)`` gets subsets as bitmasks and 0/1
    rows and returns the masks it scores with their float values; those
    within rounding of the least are rescored by ``exact``."""
    if h.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force guarded at n <= {BRUTE_FORCE_MAX_N}")
    if h.n < 2:
        raise ValueError("no proper subsets exist")
    best = math.inf
    candidates: list[int] = []
    full = (1 << h.n) - 1
    for lo in range(1, full, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, full), dtype=np.int64)
        masks, val = chunk_values(masks, (masks[:, None] >> np.arange(h.n)) & 1)
        if len(val) and float(val.min()) < best * (1 + 1e-9) + 1e-15:
            best = min(best, float(val.min()))
            candidates.extend(masks[val <= best * (1 + 1e-9) + 1e-15].tolist())
    if not candidates:
        return None
    subset = min((_subset_members(mask, h.n) for mask in sorted(candidates)), key=exact)
    return subset, exact(subset)


def brute_force_sparsest(h: DirectedHypergraph) -> tuple[frozenset[int], Fraction]:
    """Exact minimum directed sparsity over all proper subsets.

    Ties break toward the smallest characteristic bitmask with vertices in
    index order.
    """
    inc = h.incidence
    omega = np.array(h.vertex_weights, dtype=np.int64)
    total = int(omega.sum())

    def chunk_values(masks, bits):
        ws = bits @ omega
        leave, _ = inc.crossing(bits)
        return masks, leave @ inc.weights / (ws * (total - ws))

    return _scan(h, chunk_values, lambda s: sparsity(h, s))


def brute_force_expansion(h: DirectedHypergraph) -> tuple[frozenset[int], Fraction]:
    """Exact edge expansion: min over light-side subsets of min(phi+, phi-)."""
    inc = h.incidence
    total = int(inc.degrees.sum())

    def chunk_values(masks, bits):
        ws = bits @ inc.degrees
        ok = (2 * ws <= total) & (ws > 0)
        leave, enter = inc.crossing(bits[ok])
        return masks[ok], np.minimum(leave @ inc.weights, enter @ inc.weights) / ws[ok]

    found = _scan(h, chunk_values, lambda s: expansion(h, s)[2])
    if found is None:
        raise ValueError("no subset with positive weighted degree and light side")
    return found


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
