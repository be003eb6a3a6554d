"""Directed-hypergraph data model, cut evaluation, text I/O, and the
reduction to directed normal graphs.

A directed hyperedge is a pair of non-empty vertex sets (tail, head); an
edge leaves a subset S when some tail vertex is inside S and some head
vertex is outside.  Edge weights stay exact rationals throughout this
module; the numeric solver converts to floats at its own boundary, apart
from arrays built here once and cached: a hypergraph's incidence, which
answers every cut question exactly, and its K matrix for the solver, and
the float arc arrays of a reduced digraph, for the flow network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
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
    "evaluate_cut",
    "evaluate_cuts",
    "weighted_degrees",
    "reduce_to_digraph",
    "reverse",
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

    # cached like the derived data below: every oracle call and every
    # transcript row that check-cert checks reads them, and check-cert
    # compares the report's instance block with them

    @cached_property
    def r(self) -> int:
        return max((len(e.tail) + len(e.head) for e in self.edges), default=0)

    @cached_property
    def kappa(self) -> int:
        return max(self.vertex_weights)

    @cached_property
    def total_weight(self) -> int:
        return sum(self.vertex_weights)

    # The cached properties below are computed on first use; they are not
    # fields, so equality, hashing and pickles ignore them.

    @cached_property
    def incidence(self) -> "Incidence":
        """The edges as read-only arrays that every cut question reads."""
        tail = VertexLists.of([e.tail for e in self.edges])
        head = VertexLists.of([e.head for e in self.edges])
        weights, denom = _common_numerators([e.weight for e in self.edges])
        # each edge counts once toward each vertex of its tail and head
        keys = np.sort(np.concatenate([
            tail.edge * self.n + tail.index, head.edge * self.n + head.index
        ]))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        deg = np.zeros(self.n, dtype=weights.dtype)
        np.add.at(deg, keys % self.n, weights[keys // self.n])
        degrees = _exact_array(deg.tolist())  # integers, already over denom
        for arr in (weights, degrees):
            arr.flags.writeable = False
        return Incidence(tail, head, weights, degrees, denom)

    @cached_property
    def _reversed(self) -> "DirectedHypergraph":
        rev = DirectedHypergraph(
            self.names,
            self.vertex_weights,
            tuple(Hyperedge(e.head, e.tail, e.weight) for e in self.edges),
        )
        # share the arrays, with tail and head swapped
        inc = replace(self.incidence, tail=self.incidence.head, head=self.incidence.tail)
        rev.__dict__.update(_reversed=self, incidence=inc, k_matrix=self.k_matrix)
        return rev

    @cached_property
    def _reduced(self) -> "ReducedDigraph":
        return _reduce(self)

    @cached_property
    def text(self) -> str:
        """The canonical text form that ``serialize_dhg`` returns."""
        names = self.names
        order = sorted(range(self.n), key=lambda i: names[i])
        out = [f"dhg {self.n} {self.m}"]
        out += [f"v {names[i]} {self.vertex_weights[i]}" for i in order]
        for e in self.edges:
            tail = " ".join(sorted([names[i] for i in e.tail]))
            head = " ".join(sorted([names[i] for i in e.head]))
            out.append(f"e {e.weight} T {tail} H {head}")
        return "\n".join(out) + "\n"

    @cached_property
    def k_matrix(self) -> np.ndarray:
        """The solver's K matrix (``sdpcore.mat_K`` of the vertex weights),
        read-only."""
        k = mat_K(self.vertex_weights)
        k.flags.writeable = False
        return k

    __getstate__ = _fields_state


@dataclass(frozen=True, eq=False)
class VertexLists:
    """One vertex set per edge, sorted, in CSR form: edge k's vertices are
    ``index[ptr[k]:ptr[k + 1]]``.  Read-only intp arrays."""

    index: np.ndarray
    ptr: np.ndarray

    @classmethod
    def of(cls, sets: list[frozenset[int]]) -> "VertexLists":
        ptr = np.zeros(len(sets) + 1, dtype=np.intp)
        np.cumsum([len(s) for s in sets], out=ptr[1:])
        index = np.fromiter(
            (v for s in sets for v in sorted(s)), dtype=np.intp, count=int(ptr[-1])
        )
        for arr in (index, ptr):
            arr.flags.writeable = False
        return cls(index, ptr)

    @cached_property
    def edge(self) -> np.ndarray:
        """The edge of each entry of ``index``."""
        edge = np.repeat(np.arange(len(self.sizes)), self.sizes)
        edge.flags.writeable = False
        return edge

    @cached_property
    def sizes(self) -> np.ndarray:
        """The number of vertices of each edge."""
        sizes = np.diff(self.ptr)
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def lists(self) -> tuple[list[int], ...]:
        """Each edge's vertices as a list of ints, in ``index`` order."""
        index, ptr = self.index.tolist(), self.ptr.tolist()
        return tuple(index[a:b] for a, b in zip(ptr, ptr[1:]))

    def count(self, inside: np.ndarray) -> np.ndarray:
        """The number of each edge's vertices where the boolean indicator
        ``inside`` holds (or for each indicator, one per row)."""
        if not len(self.index):
            return np.zeros(inside.shape[:-1] + (0,), dtype=np.intp)
        # gathered and summed down the columns of inside.T, which is faster
        # than along the rows of inside
        return np.add.reduceat(inside.T[self.index], self.ptr[:-1], dtype=np.intp).T


@dataclass(frozen=True, eq=False)
class Incidence:
    """A hypergraph's edges as read-only arrays: the ``tail`` and ``head``
    vertex lists, and each edge's weight and each vertex's weighted degree
    as numerators over ``denom``, in ``_common_numerators``' dtype."""

    tail: VertexLists
    head: VertexLists
    weights: np.ndarray
    degrees: np.ndarray
    denom: int

    @property
    def n(self) -> int:
        return len(self.degrees)

    @cached_property
    def capacities(self) -> np.ndarray:
        """Each edge's capacity w_e / 2, w_e rounded to the nearest float,
        read-only."""
        caps = np.array([w / self.denom for w in self.weights.tolist()]) / 2.0
        caps.flags.writeable = False
        return caps

    def crossing(self, inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the edges that leave and that enter the subset whose
        0/1 indicator is ``inside`` (or each subset, one per row)."""
        x = np.asarray(inside, dtype=bool)
        tail, head = self.tail.count(x), self.head.count(x)
        leave = (tail > 0) & (head < self.head.sizes)
        enter = (tail < self.tail.sizes) & (head > 0)
        return leave, enter

    @cached_property
    def closure_lists(self) -> tuple[tuple[list[int], ...], tuple[list[int], ...]]:
        """Per vertex, the positive-weight edges out of it; per edge, its heads."""
        keep = (self.weights > 0)[self.tail.edge]
        vertex, edge = self.tail.index[keep], self.tail.edge[keep]
        edges = edge[np.argsort(vertex, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(vertex, minlength=self.n)).tolist()
        out_edges = tuple(edges[a:b] for a, b in zip([0, *ends], ends))
        return out_edges, self.head.lists

    def singleton_out_weights(self) -> tuple[list[int], list[int]]:
        """Out-cut weight numerators of each {v} and of each V - {v}.

        {v} is left by the edges with v in the tail and a head other than
        v; V - {v} by the edges with v in the head and a tail other than v.
        """
        return self._charged(self.tail, self.head), self._charged(self.head, self.tail)

    def _charged(self, mine: VertexLists, other: VertexLists) -> list[int]:
        # per vertex v: the weight of the edges with v in ``mine`` whose
        # ``other`` list is not exactly [v]
        sole = np.where(other.sizes == 1, other.index[other.ptr[:-1]], -1)
        keep = sole[mine.edge] != mine.index
        total = np.zeros(self.n, dtype=self.weights.dtype)
        np.add.at(total, mine.index[keep], self.weights[mine.edge[keep]])
        return total.tolist()


def _common_numerators(values: list[Fraction]) -> tuple[np.ndarray, int]:
    """Numerators over the least common denominator, as ``_exact_array``."""
    denom = math.lcm(*(v.denominator for v in values)) if values else 1
    return _exact_array([int(v * denom) for v in values]), denom


def _exact_array(nums: list[int]) -> np.ndarray:
    """int64 when twice their total fits, so every subset sum and its double
    stays exact; otherwise Python ints (object dtype), exact at any size."""
    fits = 2 * sum(nums) <= np.iinfo(np.int64).max
    return np.array(nums, dtype=np.int64 if fits else object)


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

    @cached_property
    def num_vertices(self) -> int:
        return self.base.n + 2 * self.base.m

    def vertex_weight(self, node: int) -> int:
        return self.base.vertex_weights[node] if node < self.base.n else 0

    @cached_property
    def flow_arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parallel (from, to, capacity) arrays of the arcs as a flow network.

        Read-only int32 node indices and float64 capacities: edge arcs carry
        the edge capacities w_e / 2 of ``Incidence.capacities`` and gadget
        arcs ``float(big_weight)``.  Computed on first use and shared by
        every flow instance built on this digraph.
        """
        arc_from = np.array([u for u, _, _ in self.arcs], dtype=np.int32)
        arc_to = np.array([v for _, v, _ in self.arcs], dtype=np.int32)
        cap = np.full(len(self.arcs), float(self.big_weight))
        cap[list(self.edge_arc_index)] = self.base.incidence.capacities
        for arr in (arc_from, arc_to, cap):
            arr.flags.writeable = False
        return arc_from, arc_to, cap

    @cached_property
    def arc_edge(self) -> np.ndarray:
        """The hyperedge of each arc, read-only intp: edge e's arcs (its
        edge arc, then its tail and head gadget arcs) are consecutive from
        ``edge_arc_index[e]``."""
        sizes = np.diff([*self.edge_arc_index, len(self.arcs)])
        arc_edge = np.repeat(np.arange(self.base.m), sizes)
        arc_edge.flags.writeable = False
        return arc_edge

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


def serialize_dhg(h: DirectedHypergraph) -> str:
    """Canonical text form: vertices sorted by name, edges in input order;
    built once per hypergraph and cached on it."""
    return h.text


def _indicators(h: DirectedHypergraph, subsets: list) -> np.ndarray:
    """One boolean row per subset, true at its vertices; ValueError where
    a vertex is out of range."""
    inside = np.zeros((len(subsets), h.n), dtype=bool)
    for row, s in zip(inside, subsets):
        try:
            # unsigned, so a negative vertex overflows rather than wrapping
            row[np.fromiter(s, dtype=np.uintp, count=len(s))] = True
        except (OverflowError, IndexError):
            raise ValueError("subset contains out-of-range vertices") from None
    return inside


def sparsity(h: DirectedHypergraph, subset) -> Fraction:
    """Directed sparsity: out-going cut weight over the weight product."""
    return evaluate_cut(h, subset).sparsity


def weighted_degrees(h: DirectedHypergraph) -> list[Fraction]:
    """Weighted degree of each vertex: total weight of incident edges."""
    return [Fraction(d, h.incidence.denom) for d in h.incidence.degrees.tolist()]


def expansion(h: DirectedHypergraph, subset) -> tuple[Fraction, Fraction, Fraction]:
    """(phi_plus, phi_minus, phi) of a subset, under weighted degrees.

    File-supplied vertex weights are ignored here: expansion is defined
    against recomputed weighted degrees.
    """
    cut = evaluate_cut(h, subset)
    if not h.incidence.degrees[list(cut.subset)].any():
        raise ValueError("undefined expansion: subset has zero weighted degree")
    return cut.phi_plus, cut.phi_minus, min(cut.phi_plus, cut.phi_minus)


def evaluate_cut(h: DirectedHypergraph, subset) -> Cut:
    """Bundle sparsity and both expansions of a proper subset."""
    return evaluate_cuts(h, [subset])[0]


def evaluate_cuts(h: DirectedHypergraph, subsets) -> list[Cut]:
    """``evaluate_cut`` of each subset, in one pass over the incidence."""
    sets = [frozenset(s) for s in subsets]
    if any(not 0 < len(s) < h.n for s in sets):
        raise ValueError("subset must be non-empty and proper")
    inc = h.incidence
    total = h.total_weight
    inside = _indicators(h, sets)
    leave, enter = inc.crossing(inside)
    cuts = []
    # numerators over one denominator, which cancels in the expansions
    for s, w_out, w_in, deg, ws in zip(
        sets,
        (leave @ inc.weights).tolist(),
        (enter @ inc.weights).tolist(),
        (inside @ inc.degrees).tolist(),
        (inside @ np.array(h.vertex_weights)).tolist(),
    ):
        phi = (Fraction(w_out, deg), Fraction(w_in, deg)) if deg else (Fraction(0), Fraction(0))
        cuts.append(Cut(s, Fraction(w_out, inc.denom * ws * (total - ws)), *phi))
    return cuts


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
    zero-sparsity cut.  Each edge is fired at most once.
    """
    out_edges, heads = h.incidence.closure_lists
    s = set(seeds)
    stack = list(s)
    fired = [False] * h.m
    while stack:
        for k in out_edges[stack.pop()]:
            if not fired[k]:
                fired[k] = True
                for v in heads[k]:
                    if v not in s:
                        s.add(v)
                        stack.append(v)
    return frozenset(s)
