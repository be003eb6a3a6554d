"""Max-flow on the reduced digraph, lifting flows back to hypergraph flows,
and decomposing them into triangle terms plus an endpoint demand matrix.

The max-flow kernel is ``_core.max_flow_arrays``, Dinic with capacity
scaling, compiled from C where a C compiler exists and in pure Python
otherwise, with the same results either way.  A flow instance holds numpy
arc arrays, the reduced digraph's cached arrays with the terminal arcs
appended from the caller's vertex and capacity arrays, so no flow rebuilds
its arcs from tuples.  Flows are floating point with relative tolerances;
the exact rational layer stops at the hypergraph module.  A lifted flow is
two arrays, its (e, i, j) keys and their values, and F and sum f_p T_p are
each one scatter over such arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

# perfbench/tracing.py wraps max_flow_arrays in this module's namespace
from ._core import max_flow_arrays
from .hypergraph import ReducedDigraph
from .sdpcore import TriangleId

__all__ = [
    "FlowInstance",
    "MaxFlowResult",
    "FlowAssignment",
    "FlowDecomposition",
    "build_flow_instance",
    "flow_tolerance",
    "max_flow",
    "lift_flow",
    "flow_matrix",
    "pair_flow",
    "decompose",
]

CONSERVATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FlowInstance:
    """s-t max-flow instance over a reduced digraph.

    Arc layout: the reduced digraph's arcs first (hyperedge arcs carry
    capacity w_e / 2, gadget arcs carry the big weight), then one source arc
    per vertex of ``sources``, then one sink arc per vertex of ``sinks``,
    each side in vertex order; and each side's total capacity.  The arrays
    are read-only: int32 node indices, float64 capacities.
    """

    rd: ReducedDigraph
    arc_from: np.ndarray
    arc_to: np.ndarray
    cap: np.ndarray
    sources: np.ndarray
    sinks: np.ndarray
    source_total: float
    sink_total: float

    @property
    def s(self) -> int:
        return self.rd.num_vertices

    @property
    def t(self) -> int:
        return self.rd.num_vertices + 1

    @property
    def num_nodes(self) -> int:
        return self.rd.num_vertices + 2


@dataclass(frozen=True, eq=False)
class MaxFlowResult:
    value: float
    arc_flow: np.ndarray
    reachable: np.ndarray


def build_flow_instance(
    rd: ReducedDigraph,
    sources: np.ndarray,
    source_caps: np.ndarray,
    sinks: np.ndarray,
    sink_caps: np.ndarray,
) -> FlowInstance:
    """Attach a source arc into each vertex of ``sources`` and a sink arc
    out of each of ``sinks``, with the capacities at the same places of
    ``source_caps`` and ``sink_caps``; each side in vertex order."""
    by_src = np.argsort(sources, kind="stable")
    by_snk = np.argsort(sinks, kind="stable")
    src, src_caps = np.asarray(sources, np.int32)[by_src], np.asarray(source_caps, float)[by_src]
    snk, snk_caps = np.asarray(sinks, np.int32)[by_snk], np.asarray(sink_caps, float)[by_snk]
    n_nodes = rd.num_vertices
    arc_from, arc_to, cap = rd.flow_arcs
    arrays = (
        np.concatenate((arc_from, np.full(len(src), n_nodes, np.int32), snk)),
        np.concatenate((arc_to, src, np.full(len(snk), n_nodes + 1, np.int32))),
        np.concatenate((cap, src_caps, snk_caps)),
    )
    for arr in (*arrays, src, snk):
        arr.flags.writeable = False
    # one at a time in vertex order: np.sum sums pairwise and can round
    # differently, and the totals set the kernel's tolerance
    return FlowInstance(rd, *arrays, src, snk, sum(src_caps.tolist()), sum(snk_caps.tolist()))


def flow_tolerance(instance: FlowInstance) -> float:
    """The kernel's residual tolerance for ``instance``.

    No flow exceeds either terminal total, so the tolerance follows those
    totals rather than the largest arc: the gadget weight can exceed the
    terminal capacities by many orders of magnitude.  Without terminal
    capacity it is the smallest subnormal float, and the flow is 0; a
    normal floor would exceed every capacity of a subnormal instance, and
    the kernel would push nothing.
    """
    terminal = max(instance.source_total, instance.sink_total)
    return max(1e-12 * terminal, math.ulp(0.0))


def max_flow(instance: FlowInstance) -> MaxFlowResult:
    """Maximum s-t flow, in read-only arrays; the reachability mask induces
    a minimum cut."""
    value, flow, reach = max_flow_arrays(
        instance.num_nodes,
        instance.arc_from,
        instance.arc_to,
        instance.cap,
        instance.s,
        instance.t,
        flow_tolerance(instance),
    )
    flow.flags.writeable = reach.flags.writeable = False
    return MaxFlowResult(float(value), flow, reach)


@dataclass(frozen=True, eq=False)
class FlowAssignment:
    """Per-hyperedge pairwise flow values f[e, i, j] >= 0 (sparse): row k of
    the (k, 3) int64 array ``keys`` is (e, i, j), and ``values[k]`` is its
    flow."""

    keys: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, entries: Iterable[tuple[int, int, int, float]]) -> "FlowAssignment":
        """The assignment of the (e, i, j, f) ``entries``, in their order."""
        entries = list(entries)
        keys = np.array([entry[:3] for entry in entries], dtype=np.int64).reshape(-1, 3)
        return cls(keys, np.array([entry[3] for entry in entries], dtype=float))

    def __iter__(self) -> Iterator[tuple[int, int, int, float]]:
        return ((e, i, j, f) for (e, i, j), f in zip(self.keys.tolist(), self.values.tolist()))

    def __len__(self) -> int:
        return len(self.values)


def lift_flow(result: MaxFlowResult, instance: FlowInstance) -> FlowAssignment:
    """Hypergraph flow induced by a digraph flow, gadget arcs dropped.

    Inflow at the tail gadget node is paired with outflow at the head node
    proportionally (inflow share times outflow share), which conserves all
    marginals and is order-independent.  Only edges with an arc of nonzero
    flow are visited: an edge whose arcs all carry 0 conserves trivially and
    lifts to nothing.  An edge's conservation tolerance is 1e-9 of the
    smaller of its weight and the flow's value, both bounds on its flow.
    """
    rd = instance.rd
    edge_flow = result.arc_flow[: len(rd.arc_edge)]
    # ascending arcs give ascending edges, each edge once
    carrying = dict.fromkeys(rd.arc_edge[np.flatnonzero(edge_flow)].tolist())
    values: list[tuple[int, int, int, float]] = []
    # each edge's tails and heads sorted, the order of its gadget arcs
    inc = rd.base.incidence
    for e_idx in carrying:
        tails, heads = inc.tail.lists[e_idx], inc.head.lists[e_idx]
        k = rd.edge_arc_index[e_idx]
        # Python floats, as the reports hold
        mid, *gadget = edge_flow[k : k + 1 + len(tails) + len(heads)].tolist()
        in_flows, out_flows = gadget[: len(tails)], gadget[len(tails) :]
        tol = CONSERVATION_TOL * min(float(rd.base.edges[e_idx].weight), result.value)
        if abs(sum(in_flows) - mid) > tol or abs(sum(out_flows) - mid) > tol:
            raise ArithmeticError(
                f"gadget conservation violated at edge {e_idx}: "
                f"in={sum(in_flows):.12g} mid={mid:.12g} out={sum(out_flows):.12g}"
            )
        if mid <= tol:
            continue
        for i, fi in zip(tails, in_flows):
            if fi <= 0.0:
                continue
            for j, fj in zip(heads, out_flows):
                if fj <= 0.0:
                    continue
                # divided first where the product falls below the normal
                # floats (a flow of 1e-200 squares to 0)
                product = fi * fj
                share = product / mid if product >= sys.float_info.min else fi * (fj / mid)
                values.append((e_idx, i, j, share))
    return FlowAssignment.of(values)


# the squared differences (e_p - e_q)(e_p - e_q)^T that a three-column row
# adds, in order: p and q are columns of the row (column 3 is vertex 0), with
# the term's sign
_TERMS = {
    "A": ([1, 1, 2], [2, 3, 3], [1.0, -1.0, 1.0]),  # mat_A(i, j) on a row (e, i, j)
    "T": ([0, 2, 0], [2, 1, 1], [1.0, 1.0, -1.0]),  # mat_T(a, b; mid) on a row (a, b, mid)
}


@lru_cache(maxsize=16)
def _cells(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (3, 4 t) matrix that maps a row to its t terms' cells (p, p),
    (q, q), (p, q), (q, p) in an n x n matrix, p (n + 1), q (n + 1), p n + q
    and q n + p, each linear in the row; and the cells' signs."""
    p_cols, q_cols, signs = _TERMS[kind]
    p, q = np.eye(4, 3, dtype=np.int64)[[p_cols, q_cols]].transpose(0, 2, 1)
    cells = np.stack((p * (n + 1), q * (n + 1), p * n + q, q * n + p), axis=-1).reshape(3, -1)
    signs = np.outer(signs, [1.0, 1.0, -1.0, -1.0]).ravel()
    cells.flags.writeable = signs.flags.writeable = False  # shared by every call
    return cells, signs


def _sq_diff_sum(rows: np.ndarray, kind: str, c: np.ndarray, n: int) -> np.ndarray:
    """sum over rows r and their terms (see ``_TERMS``) of c[r] times the
    term, as one scatter; terms with p == q are zero and skipped.

    Each cell receives its additions in row and term order, as in-place
    additions of one term after another make them (a subtraction is the
    addition of the negated value; ``add_mat_A`` and ``add_mat_T`` in the
    tests' ``witnesses`` are that reference), so the sum is the same to the
    bit.  IndexError where a vertex is outside [0, n).
    """
    cell_matrix, signs = _cells(kind, n)
    cells = rows @ cell_matrix
    weights = c[:, None] * signs
    same = cells[:, ::4] == cells[:, 2::4]  # p (n + 1) against p n + q
    if same.any():
        keep = ~same.repeat(4, axis=1)
        cells, weights = cells[keep], weights[keep]
    # without terms bincount would count in int64
    if not cells.size:
        return np.zeros((n, n))
    try:  # bincount rejects a negative cell, and reshape one past the last
        return np.bincount(cells.ravel(), weights.ravel(), n * n).reshape(n, n)
    except ValueError:
        raise IndexError(f"a vertex is out of range for n = {n}") from None


def flow_matrix(fa: FlowAssignment, n: int) -> np.ndarray:
    """F = sum over (e, i, j) of f * mat_A(i, j); annihilates the ones vector."""
    return _sq_diff_sum(fa.keys, "A", fa.values, n)


def pair_flow(fa: FlowAssignment) -> dict[tuple[int, int], float]:
    """Collapse a hypergraph flow to pairwise totals g[i, j]."""
    g: dict[tuple[int, int], float] = {}
    for _, i, j, f in fa:
        if i != j:
            g[(i, j)] = g.get((i, j), 0.0) + f
    return g


@dataclass(frozen=True)
class FlowDecomposition:
    """Path decomposition of a flow: triangle weights plus endpoint demands.

    ``dropped_pairs`` holds the pairwise mass removed as cycles, so tests can
    reconstruct the exact matrix identity
    F(cycle-free) = sum f_p T_p + D.
    """

    triangle_weights: dict[TriangleId, float]
    demand: dict[tuple[int, int], float]
    dropped_cycle_mass: float
    dropped_pairs: dict[tuple[int, int], float] = field(default_factory=dict)

    def total_demand(self) -> float:
        return sum(self.demand.values())


def decompose(fa: FlowAssignment, sources, sinks) -> FlowDecomposition:
    """Path/cycle decomposition of the pairwise flow graph.

    Each source-to-sink path (i_0, ..., i_k) contributes its flow to the
    demand on (i_0, i_k) and to the k-1 triangles anchored at i_0; cycles
    are dropped (their pairwise mass is recorded).  Flow below 1e-12 of the
    largest pairwise flow counts as 0.
    """
    g = pair_flow(fa)
    sources = set(sources)
    sinks = set(sinks)
    balance: dict[int, float] = {}
    for (i, j), f in g.items():
        balance[i] = balance.get(i, 0.0) + f
        balance[j] = balance.get(j, 0.0) - f
    eps = 1e-12 * max((abs(f) for f in g.values()), default=0.0)

    for v, b in balance.items():
        if b > eps and v not in sources:
            raise ArithmeticError(f"unexpected flow source at vertex {v}")
        if b < -eps and v not in sinks:
            raise ArithmeticError(f"unexpected flow sink at vertex {v}")

    out_adj: dict[int, set[int]] = {}
    for i, j in g:
        out_adj.setdefault(i, set()).add(j)

    def take(i, j, amount):
        rest = g[(i, j)] - amount
        if rest <= eps:
            del g[(i, j)]
            out_adj[i].discard(j)
        else:
            g[(i, j)] = rest

    triangles: dict[TriangleId, float] = {}
    demand: dict[tuple[int, int], float] = {}
    dropped = 0.0

    for start in sorted(v for v, b in balance.items() if b > eps):
        while balance.get(start, 0.0) > eps:
            # trace one path from `start`, peeling off cycles as they appear
            path = [start]
            pos = {start: 0}
            end = None
            while True:
                u = path[-1]
                succ = out_adj.get(u)
                if not succ:
                    break
                v = max(succ, key=lambda x: (g[(u, x)], -x))
                if v in pos:
                    # cycle: remove its minimum and restart from v
                    cyc = path[pos[v] :] + [v]
                    f = min(g[(cyc[a], cyc[a + 1])] for a in range(len(cyc) - 1))
                    for a in range(len(cyc) - 1):
                        dropped += f
                        take(cyc[a], cyc[a + 1], f)
                    for w in path[pos[v] + 1 :]:
                        del pos[w]
                    del path[pos[v] + 1 :]
                    continue
                path.append(v)
                pos[v] = len(path) - 1
                if balance.get(v, 0.0) < -eps:
                    end = v
                    break
            if end is None:
                break  # numerical dust: no completable path remains
            f = min(
                balance[start],
                -balance[end],
                min(g[(path[a], path[a + 1])] for a in range(len(path) - 1)),
            )
            balance[start] -= f
            balance[end] += f
            for a in range(len(path) - 1):
                take(path[a], path[a + 1], f)
            key = (path[0], path[-1])
            demand[key] = demand.get(key, 0.0) + f
            for a in range(1, len(path) - 1):
                tri = TriangleId.make(path[0], path[a + 1], path[a])
                triangles[tri] = triangles.get(tri, 0.0) + f

    dropped_pairs: dict[tuple[int, int], float] = {}
    for (i, j), f in g.items():
        dropped += f
        dropped_pairs[(i, j)] = dropped_pairs.get((i, j), 0.0) + f

    return FlowDecomposition(triangles, demand, dropped, dropped_pairs)


def triangle_matrix_sum(triangles: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """sum of f_p * mat_T(p) over the rows p = (a, b, mid) of ``triangles``
    and their ``weights``, with mat_T's three squared differences in order."""
    return _sq_diff_sum(triangles, "T", weights, n)
