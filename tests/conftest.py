"""Shared helpers: small instances, random hypergraphs, normalized states."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from hyperspars.hypergraph import DirectedHypergraph, Hyperedge
from hyperspars.sdpcore import GramState, mat_K

from witnesses import gram_state


def make_h(n, edges, weights=None, names=None):
    """Hypergraph from (tail, head, weight) triples over integer vertices."""
    names = names or tuple(str(i) for i in range(n))
    weights = tuple(weights) if weights else tuple([1] * n)
    hyperedges = tuple(
        Hyperedge(frozenset(t), frozenset(hd), Fraction(w)) for t, hd, w in edges
    )
    return DirectedHypergraph(tuple(names), weights, hyperedges)


def scaled(h, factor):
    """``h`` with every edge weight multiplied by ``factor``."""
    edges = tuple(Hyperedge(e.tail, e.head, e.weight * factor) for e in h.edges)
    return DirectedHypergraph(h.names, h.vertex_weights, edges)


def random_hypergraph(rng, n=None, m=None, max_n=8, max_m=6, kappa=None, max_side=3):
    n = n if n is not None else int(rng.integers(2, max_n + 1))
    m = m if m is not None else int(rng.integers(1, max_m + 1))
    kappa = kappa if kappa is not None else int(rng.integers(1, min(n, 3) + 1))
    weights = [int(w) for w in rng.integers(1, kappa + 1, size=n)]
    edges = []
    for _ in range(m):
        t_sz = int(rng.integers(1, min(max_side, n) + 1))
        h_sz = int(rng.integers(1, min(max_side, n) + 1))
        tail = set(int(v) for v in rng.choice(n, size=t_sz, replace=False))
        head = set(int(v) for v in rng.choice(n, size=h_sz, replace=False))
        w = Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 4)))
        edges.append((tail, head, w))
    return make_h(n, edges, weights)


def normalized_state(rng, h, dim=None):
    """Random PSD Gram state scaled so K . X = 1."""
    n = h.n
    dim = dim or int(rng.integers(1, n + 1))
    v = rng.standard_normal((n, dim))
    x = v @ v.T
    k = mat_K(h.vertex_weights)
    x = x / float(np.tensordot(k, x))
    return gram_state(x)


def integral_state(h, subset):
    """The embedding a cut induces: v_i = +/- v_0 scaled so K . X = 1."""
    n = h.n
    inside = set(subset)
    ws = sum(h.vertex_weights[i] for i in inside)
    wc = h.total_weight - ws
    norm0 = 1.0 / (4.0 * ws * wc)
    sign = np.array([1.0 if i in inside else -1.0 for i in range(n)])
    vectors = (sign * np.sqrt(norm0)).reshape(n, 1)
    return GramState(vectors)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
