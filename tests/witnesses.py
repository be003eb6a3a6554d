"""Witness functions for the acceptance criteria, used only by the tests.

They state properties of the solver's building blocks in executable form:
the matrix exponential and variance form behind the multiplicative-weights
analysis, the demand-norm and capacity-duality bounds and the flow
decomposition identity of the flow layer, the subset lift and projection
between a hypergraph and its reduced digraph, a cut evaluator that
scans the edges' frozensets with exact ``Fraction`` sums, independent of
the incidence arrays the package answers cut questions from, and the
singleton/closure baseline as one cut evaluation per candidate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from hyperspars.flownet import (
    FlowAssignment,
    FlowDecomposition,
    demand_matrix,
    flow_matrix,
    triangle_matrix_sum,
)
from hyperspars.hypergraph import (
    Cut,
    DirectedHypergraph,
    ReducedDigraph,
    evaluate_cut,
    out_closure,
)
from hyperspars.sdpcore import GramState

DEFAULT_DEMAND_NORM_CONST = 8.0


def mat_exp(m: np.ndarray) -> np.ndarray:
    """exp(M) for symmetric M via eigendecomposition; result symmetric PSD."""
    m = np.asarray(m, dtype=float)
    lam, u = np.linalg.eigh((m + m.T) / 2.0)
    out = (u * np.exp(lam)) @ u.T
    return (out + out.T) / 2.0


def variance_form(u, delta) -> float:
    """Variance of the values u under the probability masses delta.

    Preconditions: sum(u) = 0, sum(u^2) = 1, delta a positive probability
    vector.  The value always lies in [min(delta), max(delta)].
    """
    u = np.asarray(u, dtype=float)
    d = np.asarray(delta, dtype=float)
    if u.shape != d.shape:
        raise ValueError("u and delta must have equal length")
    if abs(u.sum()) > 1e-9:
        raise ValueError("u must sum to zero")
    if abs(u @ u - 1.0) > 1e-9:
        raise ValueError("u must have unit squared norm")
    if np.any(d <= 0):
        raise ValueError("delta entries must be positive")
    if abs(d.sum() - 1.0) > 1e-9:
        raise ValueError("delta must sum to one")
    mean = float(d @ u)
    return float(d @ (u * u)) - mean * mean


def demand_norm_bound(
    demand: Mapping[tuple[int, int], float],
    norm_const: float = DEFAULT_DEMAND_NORM_CONST,
) -> float:
    """Upper bound norm_const * sum(d_ij) on the demand matrix spectral norm."""
    return norm_const * sum(demand.values())


def capacity_duality_check(
    fa: FlowAssignment,
    state: GramState,
    h: DirectedHypergraph,
    tol: float = 1e-9,
) -> bool:
    """Weak duality predicate: F . X <= sum_e c_e d_e with c_e = w_e / 2.

    Holds for every capacity-respecting flow.
    """
    f_dot_x = sum(f * state.ddist(i, j) for _, i, j, f in fa)
    bound = 0.0
    for e in h.edges:
        d_e = max(
            [0.0]
            + [state.ddist(i, j) for i in sorted(e.tail) for j in sorted(e.head)]
        )
        bound += float(e.weight) / 2.0 * d_e
    scale = max(abs(f_dot_x), abs(bound), 1.0)
    return f_dot_x <= bound + tol * scale


def decomposition_matrix_identity_gap(
    fa: FlowAssignment,
    dec: FlowDecomposition,
    n: int,
) -> float:
    """Max-abs gap of F(cycle-free) - (sum f_p T_p + D); should be ~0."""
    lhs = flow_matrix(fa, n) - demand_matrix(dec.dropped_pairs, n)
    rhs = triangle_matrix_sum(dec.triangle_weights, n) + demand_matrix(dec.demand, n)
    return float(np.max(np.abs(lhs - rhs)))


def transform_subset(rd: ReducedDigraph, subset: Iterable[int]) -> frozenset[int]:
    """Canonical lift of an original subset into the reduced digraph."""
    s = frozenset(subset)
    h = rd.base
    lifted = set(s)
    for k, e in enumerate(h.edges):
        if not e.tail.isdisjoint(s):
            lifted.add(rd.tail_node(k))
        if e.head <= s:
            lifted.add(rd.head_node(k))
    return frozenset(lifted)


def digraph_cut_weight(rd: ReducedDigraph, subset: Iterable[int]) -> Fraction:
    """Weight of arcs leaving ``subset`` in the reduced digraph."""
    s = set(subset)
    return sum((w for u, v, w in rd.arcs if u in s and v not in s), Fraction(0))


def restrict_subset(rd: ReducedDigraph, subset: Iterable[int]) -> tuple[frozenset[int], bool]:
    """Project a digraph subset back to original vertices.

    The flag certifies cut-weight preservation: the digraph cut stayed
    below the gadget weight M and the projected subset's out-going cut
    equals it.  (Below M alone does not suffice: a tail gadget node without
    any of its tail vertices keeps the edge arc in the digraph cut while
    contributing nothing to the restricted cut.)
    """
    s = set(subset)
    restricted = frozenset(v for v in s if v < rd.base.n)
    dig = digraph_cut_weight(rd, s)
    if dig >= rd.big_weight:
        return restricted, False
    crossing = [k for k in scan_out_cut(rd.base, restricted)]
    hyp = sum((rd.base.edges[k].weight for k in crossing), Fraction(0))
    return restricted, hyp == dig


def scan_out_cut(h: DirectedHypergraph, subset) -> list[int]:
    """Indices of edges in the out-going cut of ``subset``."""
    return [
        k
        for k, e in enumerate(h.edges)
        if not e.tail.isdisjoint(subset) and not e.head.issubset(subset)
    ]


def scan_out_weight(h: DirectedHypergraph, subset) -> Fraction:
    return sum((h.edges[k].weight for k in scan_out_cut(h, subset)), Fraction(0))


def scan_weighted_degrees(h: DirectedHypergraph) -> tuple[Fraction, ...]:
    deg = [Fraction(0)] * h.n
    for e in h.edges:
        for v in e.tail | e.head:
            deg[v] += e.weight
    return tuple(deg)


def scan_sparsity(h: DirectedHypergraph, subset) -> Fraction:
    s = frozenset(subset)
    ws = h.weight_of(s)
    return scan_out_weight(h, s) / (ws * (h.total_weight - ws))


def scan_expansion(h: DirectedHypergraph, subset) -> tuple[Fraction, Fraction, Fraction]:
    """(phi_plus, phi_minus, phi); ValueError where ``subset`` has zero
    weighted degree."""
    s = frozenset(subset)
    deg = scan_weighted_degrees(h)
    ws = sum((deg[i] for i in s), Fraction(0))
    if ws == 0:
        raise ValueError("undefined expansion: subset has zero weighted degree")
    phi_plus = scan_out_weight(h, s) / ws
    phi_minus = scan_out_weight(h, frozenset(range(h.n)) - s) / ws
    return phi_plus, phi_minus, min(phi_plus, phi_minus)


def scan_out_closure(h: DirectedHypergraph, seeds: Iterable[int]) -> frozenset[int]:
    """Smallest superset of ``seeds`` with zero-weight out-going cut."""
    s = set(seeds)
    changed = True
    while changed:
        changed = False
        for e in h.edges:
            if e.weight > 0 and not e.tail.isdisjoint(s) and not e.head <= s:
                s |= e.head
                changed = True
    return frozenset(s)


def scan_singleton_baseline(h: DirectedHypergraph) -> Cut:
    """Best of the singleton cuts and zero-cut closures, evaluating each of
    the 3n candidates in turn; the first of least sparsity wins."""
    best: Cut | None = None
    for v in range(h.n):
        candidates = [{v}, set(range(h.n)) - {v}, out_closure(h, {v})]
        for subset in candidates:
            if not subset or len(subset) == h.n:
                continue
            cut = evaluate_cut(h, subset)
            if best is None or cut.sparsity < best.sparsity:
                best = cut
    assert best is not None
    return best
