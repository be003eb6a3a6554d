"""The max-flow kernel: Dinic with capacity scaling, in pure Python.

Arc-array input; returns the flow value, per-arc flows, and the residual
reachability mask whose boundary is a minimum cut.  This is the reference
that ``_maxflow.c`` ports line for line, and the kernel that runs where no
C compiler is available.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def max_flow_arrays(n_nodes, arc_from, arc_to, cap, s, t, eps=1e-12):
    """Maximum s-t flow via Dinic with capacity scaling.

    Parameters are parallel arrays describing the arcs (from, to, capacity).
    Returns ``(value, flow, reachable)``, the last two as float64 and bool
    arrays, where ``flow[a]`` is the flow pushed
    on input arc ``a`` and ``reachable[k]`` flags residual reachability from
    ``s`` (so ``reachable`` induces a minimum cut).
    """
    # numpy arrays, as flownet passes them, become lists of Python scalars:
    # the loops below index those far faster than numpy scalars
    arc_from = np.asarray(arc_from, dtype=np.int64).tolist()
    arc_to = np.asarray(arc_to, dtype=np.int64).tolist()
    cap = np.asarray(cap, dtype=np.float64).tolist()
    na = len(arc_from)
    # residual arc pairs: 2a forward, 2a+1 backward
    to = [0] * (2 * na)
    res = [0.0] * (2 * na)
    adj = [[] for _ in range(n_nodes)]
    maxcap = 0.0
    # the terminal totals, added left to right as the C port adds them;
    # sum() compensates its float additions from Python 3.12 on
    src_out = 0.0
    snk_in = 0.0
    for a in range(na):
        u = arc_from[a]
        v = arc_to[a]
        c = cap[a]
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

    if maxcap <= eps or s == t:
        reach = _residual_reach(n_nodes, adj, to, res, s, eps)
        return 0.0, np.zeros(na), np.asarray(reach, dtype=np.bool_)

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

    flow = [res[2 * a + 1] for a in range(na)]
    reach = _residual_reach(n_nodes, adj, to, res, s, eps)
    return value, np.asarray(flow, dtype=np.float64), np.asarray(reach, dtype=np.bool_)


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
