"""The max-flow kernel: Dinic with capacity scaling, in pure Python.

Arc-array input: base arcs, solved once or as the base of a batch of flows
that each add their own terminal arcs.  Returns the flow values, the last
flow's per-arc flows, and the residual reachability masks whose boundaries
are minimum cuts.  This is the reference that ``_maxflow.c`` ports line for
line, and the kernel that runs where no C compiler is available.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


def max_flow_arrays(
    n_nodes, arc_from, arc_to, cap, s, t, eps=1e-12, terminals=None, stop=math.inf
):
    """Maximum s-t flows via Dinic with capacity scaling.

    The parallel arrays (``arc_from``, ``arc_to``, ``cap``) are the base
    arcs.  Without ``terminals``, one flow over them at tolerance ``eps``:
    returns ``(value, flow, reachable)``, the last two as float64 and bool
    arrays, where ``flow[a]`` is the flow pushed on arc ``a`` and
    ``reachable[k]`` flags residual reachability from ``s`` (so
    ``reachable`` induces a minimum cut).

    With ``terminals``, a batch of k >= 1 flows over the base arcs:
    ``terminals[f]`` is flow f's (sources, source_caps, sinks, sink_caps),
    and the flow adds, after the base arcs, an arc s -> v of capacity c
    for each source v and its capacity c, then an arc v -> t for each sink;
    ``eps[f]`` is its tolerance.  The flows are solved in order, and the
    first whose value is not below ``stop`` is the last.  Returns
    ``(values, flow, reachable)``: a float64 value and a bool reachability
    row per flow solved, and the arc flows of the last, its base arcs then
    its terminal arcs.  Each flow equals, bit for bit, the flow without
    ``terminals`` over the base arcs with its terminal arcs appended.
    """
    if terminals is None:
        values, flow, reach = max_flow_arrays(
            n_nodes, arc_from, arc_to, cap, s, t, [eps], [([], [], [], [])], stop
        )
        return float(values[0]), flow, reach[0]
    eps = np.asarray(eps, dtype=np.float64).tolist()
    if not 1 <= len(eps) == len(terminals):
        raise ValueError("a batch needs a flow, and one tolerance per flow")
    # numpy arrays, as flownet passes them, become lists of Python scalars:
    # the loops below index those far faster than numpy scalars
    arc_from = np.asarray(arc_from, dtype=np.int64).tolist()
    arc_to = np.asarray(arc_to, dtype=np.int64).tolist()
    cap = np.asarray(cap, dtype=np.float64).tolist()
    na = len(arc_from)
    # the base residual arc pairs, 2a forward and 2a+1 backward, and each
    # node's base adjacency, built once for the batch
    base_to = [0] * (2 * na)
    base_res = [0.0] * (2 * na)
    adj = [[] for _ in range(n_nodes)]
    base_max = 0.0
    # the terminal totals, added left to right as the C port adds them;
    # sum() compensates its float additions from Python 3.12 on
    base_src_out = 0.0
    base_snk_in = 0.0
    for a in range(na):
        u = arc_from[a]
        v = arc_to[a]
        c = cap[a]
        base_to[2 * a] = v
        base_to[2 * a + 1] = u
        base_res[2 * a] = c
        adj[u].append(2 * a)
        adj[v].append(2 * a + 1)
        if c > base_max:
            base_max = c
        if u == s:
            base_src_out += c
        if v == t:
            base_snk_in += c
    base_len = [len(arcs) for arcs in adj]

    values = []
    reaches = []
    for f, (sources, source_caps, sinks, sink_caps) in enumerate(terminals):
        sources, sinks = (np.asarray(v, dtype=np.int64).tolist() for v in (sources, sinks))
        source_caps, sink_caps = (
            np.asarray(c, dtype=np.float64).tolist() for c in (source_caps, sink_caps)
        )
        if len(sources) != len(source_caps) or len(sinks) != len(sink_caps):
            raise ValueError("each terminal needs one capacity")
        # this flow's terminal arcs follow the base arcs, sources first
        ends = [(s, v, c) for v, c in zip(sources, source_caps)]
        ends += [(u, t, c) for u, c in zip(sinks, sink_caps)]
        to = base_to + [0] * (2 * len(ends))
        res = base_res + [0.0] * (2 * len(ends))
        maxcap = base_max
        src_out = base_src_out
        snk_in = base_snk_in
        for j, (u, v, c) in enumerate(ends):
            a = na + j
            to[2 * a] = v
            to[2 * a + 1] = u
            res[2 * a] = c
            adj[u].append(2 * a)
            adj[v].append(2 * a + 1)
            if c > maxcap:
                maxcap = c
            if u == s:
                src_out += c
            if v == t:
                snk_in += c
        value = _solve(n_nodes, adj, to, res, s, t, eps[f], maxcap, src_out, snk_in)
        values.append(value)
        reaches.append(_residual_reach(n_nodes, adj, to, res, s, eps[f]))
        for u, v, _ in ends:
            del adj[u][base_len[u] :]
            del adj[v][base_len[v] :]
        if not value < stop:
            break

    flow = [res[2 * a + 1] for a in range(len(res) // 2)]
    return (
        np.asarray(values, dtype=np.float64),
        np.asarray(flow, dtype=np.float64),
        np.asarray(reaches, dtype=np.bool_).reshape(len(values), n_nodes),
    )


def _solve(n_nodes, adj, to, res, s, t, eps, maxcap, src_out, snk_in):
    """The flow value; pushes the flow into ``res``."""
    if maxcap <= eps or s == t:
        return 0.0

    level = [0] * n_nodes
    it = [0] * n_nodes
    value = 0.0

    # no augmenting path carries more than the terminal capacities, so the
    # scaling loop can start there instead of at the largest arc
    start = max(min(maxcap, src_out, snk_in), eps)

    # capacity-scaling outer loop; the final delta == eps pass makes the
    # flow exact up to eps
    delta = 1.0
    while delta * 2.0 <= start:
        delta *= 2.0
    while delta > start:
        delta /= 2.0
    deltas = []
    while delta > eps:
        deltas.append(delta)
        delta /= 2.0
    deltas.append(eps)

    # a failed BFS bounds the residual on every arc leaving the set it
    # reached; phases whose delta exceeds that bound would reach the same
    # set and push nothing, so they are skipped
    blocked = float("inf")
    for delta in deltas:
        if delta > blocked:
            continue
        while True:
            blocked = _bfs(n_nodes, adj, to, res, level, s, delta)
            if level[t] < 0:
                break
            for k in range(n_nodes):
                it[k] = 0
            while True:
                pushed = _dfs(adj, to, res, level, it, s, t, float("inf"), delta)
                if pushed <= 0.0:
                    break
                value += pushed
    return value


def _bfs(n_nodes, adj, to, res, level, s, delta):
    """Level the nodes reachable from ``s`` over arcs with residual >= delta.

    Returns the largest residual below ``delta`` on a scanned arc whose head
    was unreached when it was scanned (0.0 if there is none); when ``t``
    stays unreached, every arc leaving the reached set has at most that
    residual.
    """
    for k in range(n_nodes):
        level[k] = -1
    level[s] = 0
    blocked = 0.0
    q = deque([s])
    while q:
        u = q.popleft()
        for e in adj[u]:
            v = to[e]
            if level[v] < 0:
                r = res[e]
                if r >= delta:
                    level[v] = level[u] + 1
                    q.append(v)
                elif r > blocked:
                    blocked = r
    return blocked


def _dfs(adj, to, res, level, it, s, t, limit, delta):
    # iterative blocking-flow walk with per-node arc cursors
    path = []
    u = s
    while True:
        if u == t:
            pushed = limit
            for e in path:
                if res[e] < pushed:
                    pushed = res[e]
            for e in path:
                res[e] -= pushed
                res[e ^ 1] += pushed
            return pushed
        advanced = False
        while it[u] < len(adj[u]):
            e = adj[u][it[u]]
            v = to[e]
            if res[e] >= delta and level[v] == level[u] + 1:
                path.append(e)
                u = v
                advanced = True
                break
            it[u] += 1
        if advanced:
            continue
        level[u] = -1
        if not path:
            return 0.0
        u = to[path.pop() ^ 1]
        it[u] += 1


def _residual_reach(n_nodes, adj, to, res, s, eps):
    reach = [False] * n_nodes
    reach[s] = True
    q = deque([s])
    while q:
        u = q.popleft()
        for e in adj[u]:
            v = to[e]
            if not reach[v] and res[e] > eps:
                reach[v] = True
                q.append(v)
    return reach
