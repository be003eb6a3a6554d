"""Directed-hypergraph data model, cut evaluation, text I/O, and the
reduction to directed normal graphs.

A directed hyperedge is a pair of non-empty vertex sets (tail, head); an
edge leaves a subset S when some tail vertex is inside S and some head
vertex is outside.  Edge weights stay exact rationals throughout this
module; the numeric solver converts to floats at its own boundary, apart
from two arrays built here once and cached: the float arc arrays of a
reduced digraph, for the flow network, and the solver's K matrix of a
hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .sdpcore import mat_K

__all__ = [
    "DhgParseError",
    "Hyperedge",
    "DirectedHypergraph",
    "Cut",
    "ReducedDigraph",
    "parse_dhg",
    "serialize_dhg",
    "sparsity",
    "expansion",
    "weighted_degrees",
    "reduce_to_digraph",
    "transform_subset",
    "restrict_subset",
    "reverse",
    "digraph_cut_weight",
]


def _fields_state(obj) -> dict:
    # pickle state of a frozen dataclass: its fields, without lazily cached
    # attributes, so pickles do not depend on what was computed before
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


class DhgParseError(ValueError):
    """Raised on malformed DHG input; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Hyperedge:
    """Directed hyperedge with non-empty tail and head index sets."""

    tail: frozenset[int]
    head: frozenset[int]
    weight: Fraction

    def __post_init__(self):
        if not self.tail or not self.head:
            raise ValueError("hyperedge tail and head must be non-empty")
        if self.weight < 0:
            raise ValueError("hyperedge weight must be non-negative")


@dataclass(frozen=True)
class DirectedHypergraph:
    """Vertex-weighted directed hypergraph with dense internal indexing.

    ``names[i]`` is the external name of vertex ``i``; ``vertex_weights[i]``
    is its positive integer weight.  Vertex 0 doubles as the solver's
    designated reference vertex.
    """

    names: tuple[str, ...]
    vertex_weights: tuple[int, ...]
    edges: tuple[Hyperedge, ...]

    def __post_init__(self):
        n = len(self.names)
        if n == 0:
            raise ValueError("hypergraph needs at least one vertex")
        if len(set(self.names)) != n:
            raise ValueError("duplicate vertex names")
        if len(self.vertex_weights) != n:
            raise ValueError("vertex weight count mismatch")
        for w in self.vertex_weights:
            if not isinstance(w, int) or w < 1:
                raise ValueError("vertex weights must be positive integers")
        if max(self.vertex_weights) > n:
            raise ValueError(
                f"weight skewness {max(self.vertex_weights)} exceeds n={n}"
            )
        for e in self.edges:
            for v in e.tail | e.head:
                if not 0 <= v < n:
                    raise ValueError(f"edge endpoint {v} out of range")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def r(self) -> int:
        return max((len(e.tail) + len(e.head) for e in self.edges), default=0)

    @property
    def kappa(self) -> int:
        return max(self.vertex_weights)

    @property
    def total_weight(self) -> int:
        return sum(self.vertex_weights)

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def weight_of(self, subset: Iterable[int]) -> int:
        return sum(self.vertex_weights[i] for i in subset)

    # The cached properties below are computed on first use; they are not
    # fields, so equality, hashing and pickles ignore them.

    @cached_property
    def _weighted_degrees(self) -> tuple[Fraction, ...]:
        deg = [Fraction(0)] * self.n
        for e in self.edges:
            for v in e.tail | e.head:
                deg[v] += e.weight
        return tuple(deg)

    @cached_property
    def _reversed(self) -> "DirectedHypergraph":
        rev = DirectedHypergraph(
            self.names,
            self.vertex_weights,
            tuple(Hyperedge(e.head, e.tail, e.weight) for e in self.edges),
        )
        # share what does not depend on edge direction
        rev.__dict__.update(
            _reversed=self, _weighted_degrees=self._weighted_degrees, k_matrix=self.k_matrix
        )
        return rev

    @cached_property
    def _reduced(self) -> "ReducedDigraph":
        return _reduce(self)

    @cached_property
    def k_matrix(self) -> np.ndarray:
        """The solver's K matrix (``sdpcore.mat_K`` of the vertex weights),
        read-only."""
        k = mat_K(self.vertex_weights)
        k.flags.writeable = False
        return k

    __getstate__ = _fields_state


@dataclass(frozen=True)
class Cut:
    """A proper vertex subset with its directed sparsity and expansions."""

    subset: frozenset[int]
    sparsity: Fraction
    phi_plus: Fraction
    phi_minus: Fraction


@dataclass(frozen=True)
class ReducedDigraph:
    """Directed normal graph produced from a hypergraph.

    Vertices 0..n-1 are the originals; each hyperedge e contributes a pair
    (tail node ``n + 2e``, head node ``n + 2e + 1``) of weight-0 vertices.
    Arcs are (u, v, weight); the single per-edge arc carries the edge weight
    and every gadget arc carries ``big_weight``.
    """

    base: DirectedHypergraph
    arcs: tuple[tuple[int, int, Fraction], ...]
    big_weight: Fraction
    # arc index ranges per hyperedge: (edge arc, tail arcs slice, head arcs slice)
    edge_arc_index: tuple[int, ...] = field(repr=False, default=())

    @property
    def num_vertices(self) -> int:
        return self.base.n + 2 * self.base.m

    def tail_node(self, e: int) -> int:
        return self.base.n + 2 * e

    def head_node(self, e: int) -> int:
        return self.base.n + 2 * e + 1

    def back_map(self, node: int) -> int | None:
        """Original vertex for a digraph node, or None for gadget nodes."""
        return node if node < self.base.n else None

    def vertex_weight(self, node: int) -> int:
        return self.base.vertex_weights[node] if node < self.base.n else 0

    @cached_property
    def flow_arcs(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]:
        """Parallel (from, to, capacity) arrays of the arcs as a flow network.

        Edge arcs carry capacity ``float(w_e) / 2`` and gadget arcs
        ``float(big_weight)``.  Computed on first use and shared by every
        flow instance built on this digraph.
        """
        big = float(self.big_weight)
        edge_arc = set(self.edge_arc_index)
        arc_from = tuple(u for u, _, _ in self.arcs)
        arc_to = tuple(v for _, v, _ in self.arcs)
        cap = tuple(
            float(w) / 2.0 if k in edge_arc else big for k, (_, _, w) in enumerate(self.arcs)
        )
        return arc_from, arc_to, cap

    __getstate__ = _fields_state


def _parse_weight(tok: str, lineno: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise DhgParseError(lineno, f"bad weight {tok!r}") from None


def parse_dhg(text: str | bytes) -> DirectedHypergraph:
    """Parse the line-oriented DHG format.

    Header ``dhg <n> <m>``; then n lines ``v <name> <omega>``; then m lines
    ``e <weight> T <name>... H <name>...``.  ``#`` starts a comment.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped.split()))
    if not lines:
        raise DhgParseError(0, "empty input")

    lineno, header = lines[0]
    if len(header) != 3 or header[0] != "dhg":
        raise DhgParseError(lineno, "expected header 'dhg <n> <m>'")
    try:
        n, m = int(header[1]), int(header[2])
    except ValueError:
        raise DhgParseError(lineno, "header counts must be integers") from None
    if n < 1 or m < 0:
        raise DhgParseError(lineno, "need n >= 1 and m >= 0")
    if len(lines) != 1 + n + m:
        raise DhgParseError(lineno, f"expected {1 + n + m} content lines, got {len(lines)}")

    names: list[str] = []
    weights: list[int] = []
    index: dict[str, int] = {}
    for lineno, toks in lines[1 : 1 + n]:
        if len(toks) != 3 or toks[0] != "v":
            raise DhgParseError(lineno, "expected 'v <name> <omega>'")
        name = toks[1]
        if name in index:
            raise DhgParseError(lineno, f"duplicate vertex {name!r}")
        try:
            omega = int(toks[2])
        except ValueError:
            raise DhgParseError(lineno, "vertex weight must be an integer") from None
        if omega < 1:
            raise DhgParseError(lineno, f"vertex weight {omega} < 1")
        index[name] = len(names)
        names.append(name)
        weights.append(omega)
    if max(weights) > n:
        raise DhgParseError(lines[1][0], f"weight skewness {max(weights)} exceeds n={n}")

    edges: list[Hyperedge] = []
    for lineno, toks in lines[1 + n :]:
        if len(toks) < 5 or toks[0] != "e":
            raise DhgParseError(lineno, "expected 'e <weight> T <name>... H <name>...'")
        w = _parse_weight(toks[1], lineno)
        if w < 0:
            raise DhgParseError(lineno, "edge weight must be non-negative")
        if toks[2] != "T":
            raise DhgParseError(lineno, "expected 'T' after edge weight")
        try:
            h_at = toks.index("H", 3)
        except ValueError:
            raise DhgParseError(lineno, "missing 'H' section") from None
        tail_names = toks[3:h_at]
        head_names = toks[h_at + 1 :]
        if not tail_names:
            raise DhgParseError(lineno, "empty tail")
        if not head_names:
            raise DhgParseError(lineno, "empty head")
        try:
            tail = frozenset(index[x] for x in tail_names)
            head = frozenset(index[x] for x in head_names)
        except KeyError as exc:
            raise DhgParseError(lineno, f"unknown vertex {exc.args[0]!r}") from None
        edges.append(Hyperedge(tail, head, w))

    return DirectedHypergraph(tuple(names), tuple(weights), tuple(edges))


def _fmt_weight(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def serialize_dhg(h: DirectedHypergraph) -> str:
    """Canonical text form: vertices sorted by name, edges in input order."""
    order = sorted(range(h.n), key=lambda i: h.names[i])
    out = [f"dhg {h.n} {h.m}"]
    for i in order:
        out.append(f"v {h.names[i]} {h.vertex_weights[i]}")
    for e in h.edges:
        tail = " ".join(sorted(h.names[i] for i in e.tail))
        head = " ".join(sorted(h.names[i] for i in e.head))
        out.append(f"e {_fmt_weight(e.weight)} T {tail} H {head}")
    return "\n".join(out) + "\n"


def out_cut(h: DirectedHypergraph, subset: frozenset[int] | set[int]) -> list[int]:
    """Indices of edges in the out-going cut of ``subset``."""
    return [
        k
        for k, e in enumerate(h.edges)
        if not e.tail.isdisjoint(subset) and not e.head.issubset(subset)
    ]


def _check_proper(h: DirectedHypergraph, subset) -> frozenset[int]:
    s = frozenset(subset)
    if not s or len(s) == h.n:
        raise ValueError("subset must be non-empty and proper")
    if any(not 0 <= v < h.n for v in s):
        raise ValueError("subset contains out-of-range vertices")
    return s


def _out_weight(h: DirectedHypergraph, subset) -> Fraction:
    return sum((h.edges[k].weight for k in out_cut(h, subset)), Fraction(0))


def _sparsity_of(h: DirectedHypergraph, s: frozenset[int], cut_w: Fraction) -> Fraction:
    ws = h.weight_of(s)
    return cut_w / (ws * (h.total_weight - ws))


def sparsity(h: DirectedHypergraph, subset) -> Fraction:
    """Directed sparsity: out-going cut weight over the weight product."""
    s = _check_proper(h, subset)
    return _sparsity_of(h, s, _out_weight(h, s))


def weighted_degrees(h: DirectedHypergraph) -> list[Fraction]:
    """Weighted degree of each vertex: total weight of incident edges."""
    return list(h._weighted_degrees)


def _expansions(
    h: DirectedHypergraph, s: frozenset[int], w_out: Fraction
) -> tuple[Fraction, Fraction]:
    deg = h._weighted_degrees
    ws = sum((deg[i] for i in s), Fraction(0))
    if ws == 0:
        raise ValueError("undefined expansion: subset has zero weighted degree")
    w_in = _out_weight(h, frozenset(range(h.n)) - s)
    return w_out / ws, w_in / ws


def expansion(h: DirectedHypergraph, subset) -> tuple[Fraction, Fraction, Fraction]:
    """(phi_plus, phi_minus, phi) of a subset, under weighted degrees.

    File-supplied vertex weights are ignored here: expansion is defined
    against recomputed weighted degrees.
    """
    s = _check_proper(h, subset)
    phi_plus, phi_minus = _expansions(h, s, _out_weight(h, s))
    return phi_plus, phi_minus, min(phi_plus, phi_minus)


def evaluate_cut(h: DirectedHypergraph, subset) -> Cut:
    """Bundle sparsity and both expansions of a proper subset."""
    s = _check_proper(h, subset)
    w_out = _out_weight(h, s)
    try:
        phi_p, phi_m = _expansions(h, s, w_out)
    except ValueError:
        phi_p = phi_m = Fraction(0)
    return Cut(s, _sparsity_of(h, s, w_out), phi_p, phi_m)


def reduce_to_digraph(h: DirectedHypergraph) -> ReducedDigraph:
    """Fact-1.1-style reduction: one arc pair gadget per hyperedge.

    Per edge e: arc (tail node -> head node) of weight w_e; arcs
    (u -> tail node) for tail vertices and (head node -> v) for head
    vertices, all of weight M = n * sum(w_e).  Built once per hypergraph
    and shared, so every flow on ``h`` reuses its ``flow_arcs``.
    """
    return h._reduced


def _reduce(h: DirectedHypergraph) -> ReducedDigraph:
    big = h.n * sum((e.weight for e in h.edges), Fraction(0))
    arcs: list[tuple[int, int, Fraction]] = []
    edge_arc_index = []
    for k, e in enumerate(h.edges):
        t_node = h.n + 2 * k
        h_node = h.n + 2 * k + 1
        edge_arc_index.append(len(arcs))
        arcs.append((t_node, h_node, e.weight))
        for u in sorted(e.tail):
            arcs.append((u, t_node, big))
        for v in sorted(e.head):
            arcs.append((h_node, v, big))
    return ReducedDigraph(h, tuple(arcs), big, tuple(edge_arc_index))


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
    crossing = [k for k in out_cut(rd.base, restricted)]
    hyp = sum((rd.base.edges[k].weight for k in crossing), Fraction(0))
    return restricted, hyp == dig


def reverse(h: DirectedHypergraph) -> DirectedHypergraph:
    """Swap every edge's tail and head; weights are unchanged.

    Built once per hypergraph; reversing the result gives ``h`` back.
    """
    return h._reversed


def degree_scaled(h: DirectedHypergraph) -> DirectedHypergraph:
    """Same edges with vertex weights set from weighted degrees.

    Degrees are scaled to integers in [1, n] (so the skewness bound holds);
    used by expansion mode, which ignores file-supplied weights.
    """
    deg = weighted_degrees(h)
    max_deg = max(deg, default=Fraction(0))
    if max_deg == 0:
        raise ValueError("expansion undefined: every vertex has degree zero")
    weights = tuple(max(1, round(h.n * float(d) / float(max_deg))) for d in deg)
    return DirectedHypergraph(h.names, weights, h.edges)


def out_closure(h: DirectedHypergraph, seeds: Iterable[int]) -> frozenset[int]:
    """Smallest superset of ``seeds`` with zero-weight out-going cut.

    Propagates heads of positive-weight edges whose tail is touched; the
    result S satisfies w(out-cut(S)) = 0, so a proper closure witnesses a
    zero-sparsity cut.
    """
    s = set(seeds)
    changed = True
    while changed:
        changed = False
        for e in h.edges:
            if e.weight > 0 and not e.tail.isdisjoint(s) and not e.head <= s:
                s |= e.head
                changed = True
    return frozenset(s)
