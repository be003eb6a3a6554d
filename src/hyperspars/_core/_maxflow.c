/* The max-flow kernel in C: Dinic with capacity scaling.
 *
 * A line-for-line port of _maxflow_py.max_flow_arrays.  It keeps the same
 * residual-arc layout (2a forward, 2a + 1 backward), the same adjacency
 * order, the same scaling phases and phase skip, the same DFS cursors and
 * the same order of every floating-point operation, so the flow value, the
 * per-arc flows and the reach mask equal the Python kernel's bit for bit.
 * That needs IEEE double arithmetic rounded after each operation: build
 * with -ffp-contract=off and never with -ffast-math.
 *
 * Loaded through ctypes by _maxflow_c.py; there is no Python C-API here.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#if defined(FLT_EVAL_METHOD) && FLT_EVAL_METHOD != 0
#error "double expressions must be evaluated in double precision"
#endif

typedef struct {
    int n_nodes;
    const int *to;        /* head of each residual arc */
    double *res;          /* residual capacity of each residual arc */
    const int *first;     /* residual arcs of node u: adj[first[u] .. first[u + 1]) */
    const int *adj;
    int *level;
    int *it;              /* per-node DFS cursor, an offset into the node's arcs */
    int *queue;
    int *path;
} Net;

/* Level the nodes reachable from s over arcs with residual >= delta.
 * Returns the largest residual below delta on a scanned arc whose head was
 * unreached when it was scanned (0.0 if there is none). */
static double bfs(const Net *g, int s, double delta)
{
    int head = 0, tail = 0;
    double blocked = 0.0;
    for (int k = 0; k < g->n_nodes; k++)
        g->level[k] = -1;
    g->level[s] = 0;
    g->queue[tail++] = s;
    while (head < tail) {
        int u = g->queue[head++];
        for (int i = g->first[u]; i < g->first[u + 1]; i++) {
            int e = g->adj[i];
            int v = g->to[e];
            if (g->level[v] < 0) {
                double r = g->res[e];
                if (r >= delta) {
                    g->level[v] = g->level[u] + 1;
                    g->queue[tail++] = v;
                } else if (r > blocked) {
                    blocked = r;
                }
            }
        }
    }
    return blocked;
}

/* Iterative blocking-flow walk with per-node arc cursors. */
static double dfs(const Net *g, int s, int t, double limit, double delta)
{
    int depth = 0;
    int u = s;
    for (;;) {
        if (u == t) {
            double pushed = limit;
            for (int i = 0; i < depth; i++)
                if (g->res[g->path[i]] < pushed)
                    pushed = g->res[g->path[i]];
            for (int i = 0; i < depth; i++) {
                g->res[g->path[i]] -= pushed;
                g->res[g->path[i] ^ 1] += pushed;
            }
            return pushed;
        }
        int advanced = 0;
        while (g->it[u] < g->first[u + 1] - g->first[u]) {
            int e = g->adj[g->first[u] + g->it[u]];
            int v = g->to[e];
            if (g->res[e] >= delta && g->level[v] == g->level[u] + 1) {
                g->path[depth++] = e;
                u = v;
                advanced = 1;
                break;
            }
            g->it[u] += 1;
        }
        if (advanced)
            continue;
        g->level[u] = -1;
        if (depth == 0)
            return 0.0;
        u = g->to[g->path[--depth] ^ 1];
        g->it[u] += 1;
    }
}

static void residual_reach(const Net *g, int s, double eps, uint8_t *reach)
{
    int head = 0, tail = 0;
    for (int k = 0; k < g->n_nodes; k++)
        reach[k] = 0;
    reach[s] = 1;
    g->queue[tail++] = s;
    while (head < tail) {
        int u = g->queue[head++];
        for (int i = g->first[u]; i < g->first[u + 1]; i++) {
            int e = g->adj[i];
            int v = g->to[e];
            if (!reach[v] && g->res[e] > eps) {
                reach[v] = 1;
                g->queue[tail++] = v;
            }
        }
    }
}

/* Maximum s-t flow over the arcs (arc_from[a], arc_to[a], cap[a]).
 * Writes the flow value, flow[a] for every input arc and reach[k] (1 where
 * node k is reachable from s in the residual network).  Returns 0, 1 when
 * a node index is out of range, or 2 when memory runs out. */
int hs_max_flow(int n_nodes, int na, const int32_t *arc_from, const int32_t *arc_to,
                const double *cap, int s, int t, double eps,
                double *value_out, double *flow, uint8_t *reach)
{
    if (n_nodes < 1 || na < 0 || s < 0 || s >= n_nodes || t < 0 || t >= n_nodes)
        return 1;
    for (int a = 0; a < na; a++)
        if (arc_from[a] < 0 || arc_from[a] >= n_nodes || arc_to[a] < 0 || arc_to[a] >= n_nodes)
            return 1;

    int *to = malloc(sizeof(int) * (2 * (size_t)na + 1));
    double *res = malloc(sizeof(double) * (2 * (size_t)na + 1));
    int *adj = malloc(sizeof(int) * (2 * (size_t)na + 1));
    int *first = calloc((size_t)n_nodes + 1, sizeof(int));
    int *work = malloc(sizeof(int) * 4 * (size_t)n_nodes);
    if (!to || !res || !adj || !first || !work) {
        free(to); free(res); free(adj); free(first); free(work);
        return 2;
    }
    Net g = {n_nodes, to, res, first, adj, work, work + n_nodes,
             work + 2 * (size_t)n_nodes, work + 3 * (size_t)n_nodes};

    /* adjacency in arc order, as the Python kernel appends it: count the
     * arcs of each node, then fill each node's slice front to back */
    for (int a = 0; a < na; a++) {
        first[arc_from[a] + 1] += 1;
        first[arc_to[a] + 1] += 1;
    }
    for (int k = 0; k < n_nodes; k++)
        first[k + 1] += first[k];
    int *fill = g.it;
    for (int k = 0; k < n_nodes; k++)
        fill[k] = first[k];

    double maxcap = 0.0;
    double src_out = 0.0;
    double snk_in = 0.0;
    for (int a = 0; a < na; a++) {
        int u = arc_from[a];
        int v = arc_to[a];
        double c = cap[a];
        to[2 * a] = v;
        to[2 * a + 1] = u;
        res[2 * a] = c;
        res[2 * a + 1] = 0.0;
        adj[fill[u]++] = 2 * a;
        adj[fill[v]++] = 2 * a + 1;
        if (c > maxcap)
            maxcap = c;
        if (u == s)
            src_out += c;
        if (v == t)
            snk_in += c;
    }

    double value = 0.0;
    if (!(maxcap <= eps || s == t)) {
        /* max(min(maxcap, src_out, snk_in), eps), with Python's tie rules */
        double start = maxcap;
        if (src_out < start)
            start = src_out;
        if (snk_in < start)
            start = snk_in;
        if (eps > start)
            start = eps;

        double delta = 1.0;
        while (delta * 2.0 <= start)
            delta *= 2.0;
        while (delta > start)
            delta /= 2.0;

        /* phases delta, delta / 2, ... while above eps, then eps itself */
        double blocked = INFINITY;
        for (int last = 0; !last;) {
            double phase;
            if (delta > eps) {
                phase = delta;
                delta /= 2.0;
            } else {
                phase = eps;
                last = 1;
            }
            if (phase > blocked)
                continue;
            for (;;) {
                blocked = bfs(&g, s, phase);
                if (g.level[t] < 0)
                    break;
                for (int k = 0; k < n_nodes; k++)
                    g.it[k] = 0;
                for (;;) {
                    double pushed = dfs(&g, s, t, INFINITY, phase);
                    if (pushed <= 0.0)
                        break;
                    value += pushed;
                }
            }
        }
    }

    for (int a = 0; a < na; a++)
        flow[a] = res[2 * a + 1];
    residual_reach(&g, s, eps, reach);
    *value_out = value;

    free(to); free(res); free(adj); free(first); free(work);
    return 0;
}
