/* The max-flow kernel in C: Dinic with capacity scaling.
 *
 * A line-for-line port of _maxflow_py.max_flow_arrays: a batch of flows
 * over one set of base arcs, each flow adding its own terminal arcs.  It
 * keeps the same residual-arc layout (2a forward, 2a + 1 backward, base
 * arcs then the flow's terminal arcs), the same adjacency order, the same
 * scaling phases and phase skip, the same DFS cursors and the same order
 * of every floating-point operation, so each flow value, the per-arc flows
 * and each reach mask equal the Python kernel's bit for bit.
 * That needs IEEE double arithmetic rounded after each operation: build
 * with -ffp-contract=off and never with -ffast-math.
 *
 * Loaded through ctypes by _maxflow_c.py; there is no Python C-API here.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(FLT_EVAL_METHOD) && FLT_EVAL_METHOD != 0
#error "double expressions must be evaluated in double precision"
#endif

typedef struct {
    int n_nodes;
    const int *to;        /* head of each residual arc */
    double *res;          /* residual capacity of each residual arc */
    const int *first;     /* residual arcs of node u: adj[first[u] .. end[u]) */
    const int *end;
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
        for (int i = g->first[u]; i < g->end[u]; i++) {
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
        while (g->it[u] < g->end[u] - g->first[u]) {
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
        for (int i = g->first[u]; i < g->end[u]; i++) {
            int e = g->adj[i];
            int v = g->to[e];
            if (!reach[v] && g->res[e] > eps) {
                reach[v] = 1;
                g->queue[tail++] = v;
            }
        }
    }
}

/* The value of a maximum s-t flow over g's residual network at tolerance
 * eps, pushed into g->res; maxcap, src_out and snk_in are the largest
 * capacity and the capacities out of s and into t. */
static double solve(const Net *g, int s, int t, double eps, double maxcap,
                    double src_out, double snk_in)
{
    double value = 0.0;
    if (maxcap <= eps || s == t)
        return value;

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
            blocked = bfs(g, s, phase);
            if (g->level[t] < 0)
                break;
            for (int k = 0; k < g->n_nodes; k++)
                g->it[k] = 0;
            for (;;) {
                double pushed = dfs(g, s, t, INFINITY, phase);
                if (pushed <= 0.0)
                    break;
                value += pushed;
            }
        }
    }
    return value;
}

/* Whether ptr[0 .. k] are not CSR offsets: 0 first, never decreasing. */
static int bad_ptr(int k, const int32_t *ptr)
{
    if (ptr[0] != 0)
        return 1;
    for (int f = 0; f < k; f++)
        if (ptr[f + 1] < ptr[f])
            return 1;
    return 0;
}

/* Maximum s-t flows over the base arcs (arc_from[a], arc_to[a], cap[a]),
 * k >= 1 of them, with their terminal arcs in CSR form: terms holds
 * src_ptr[0 .. k], snk_ptr[0 .. k], then the src_node and snk_node
 * arrays; caps holds the src_cap and snk_cap arrays, then eps[0 .. k).
 * Flow f adds the source arcs (s, src_node[i], src_cap[i]) for i in
 * [src_ptr[f], src_ptr[f + 1]), then the sink arcs (snk_node[i], t,
 * snk_cap[i]) for i in [snk_ptr[f], snk_ptr[f + 1]), and is solved at
 * tolerance eps[f].  The flows run in order until the first whose value
 * is not below stop.  Writes *solved; out[f] and the row
 * reach[f * n_nodes ..] (1 where a node is reachable from s in the
 * residual network) of each flow solved; and out[k + a] for every base
 * arc a and then every terminal arc of the last.  Returns 0, 1 when a node
 * index is out of range or the pointers are not CSR offsets, or 2 when
 * memory runs out. */
int hs_max_flows(int n_nodes, int na, const int32_t *arc_from, const int32_t *arc_to,
                 const double *cap, int s, int t, int k, const int32_t *terms,
                 const double *caps, double stop, int *solved, double *out, uint8_t *reach)
{
    if (n_nodes < 1 || na < 0 || k < 1 || s < 0 || s >= n_nodes || t < 0 || t >= n_nodes)
        return 1;
    for (int a = 0; a < na; a++)
        if (arc_from[a] < 0 || arc_from[a] >= n_nodes || arc_to[a] < 0 || arc_to[a] >= n_nodes)
            return 1;
    const int32_t *src_ptr = terms, *snk_ptr = terms + k + 1;
    if (bad_ptr(k, src_ptr) || bad_ptr(k, snk_ptr))
        return 1;
    int n_src = src_ptr[k], n_snk = snk_ptr[k];
    const int32_t *src_node = terms + 2 * ((size_t)k + 1), *snk_node = src_node + n_src;
    const double *src_cap = caps, *snk_cap = caps + n_src, *eps = snk_cap + n_snk;
    for (int i = 0; i < n_src; i++)
        if (src_node[i] < 0 || src_node[i] >= n_nodes)
            return 1;
    for (int i = 0; i < n_snk; i++)
        if (snk_node[i] < 0 || snk_node[i] >= n_nodes)
            return 1;

    /* the most terminal arcs of one flow */
    int most = 0;
    for (int f = 0; f < k; f++) {
        int count = src_ptr[f + 1] - src_ptr[f] + snk_ptr[f + 1] - snk_ptr[f];
        if (count > most)
            most = count;
    }
    size_t nr = 2 * ((size_t)na + (size_t)most);
    int *to = malloc(sizeof(int) * (nr + 1));
    double *res = malloc(sizeof(double) * (nr + 1));
    double *base_res = malloc(sizeof(double) * (2 * (size_t)na + 1));
    int *first = calloc((size_t)n_nodes + 1, sizeof(int));
    int *work = calloc(7 * (size_t)n_nodes, sizeof(int));
    if (!to || !res || !base_res || !first || !work) {
        free(to); free(res); free(base_res); free(first); free(work);
        return 2;
    }
    int *end = work + 4 * (size_t)n_nodes;
    int *base_end = work + 5 * (size_t)n_nodes;
    /* room after each node's base arcs for the terminal arc ends of any
     * one flow: the ends of all flows at the node */
    int *room = work + 6 * (size_t)n_nodes;
    room[s] += n_src;
    room[t] += n_snk;
    for (int i = 0; i < n_src; i++)
        room[src_node[i]] += 1;
    for (int i = 0; i < n_snk; i++)
        room[snk_node[i]] += 1;

    /* adjacency in arc order, as the Python kernel appends it: count the
     * base arcs of each node, then fill each node's slice front to back */
    for (int a = 0; a < na; a++) {
        first[arc_from[a] + 1] += 1;
        first[arc_to[a] + 1] += 1;
    }
    for (int u = 0; u < n_nodes; u++)
        first[u + 1] += first[u] + room[u];
    int *adj = malloc(sizeof(int) * ((size_t)first[n_nodes] + 1));
    if (!adj) {
        free(to); free(res); free(base_res); free(first); free(work);
        return 2;
    }
    for (int u = 0; u < n_nodes; u++)
        end[u] = first[u];
    Net g = {n_nodes, to, res, first, end, adj, work, work + n_nodes,
             work + 2 * (size_t)n_nodes, work + 3 * (size_t)n_nodes};

    double base_max = 0.0;
    double base_src_out = 0.0;
    double base_snk_in = 0.0;
    for (int a = 0; a < na; a++) {
        int u = arc_from[a];
        int v = arc_to[a];
        double c = cap[a];
        to[2 * a] = v;
        to[2 * a + 1] = u;
        base_res[2 * a] = c;
        base_res[2 * a + 1] = 0.0;
        adj[end[u]++] = 2 * a;
        adj[end[v]++] = 2 * a + 1;
        if (c > base_max)
            base_max = c;
        if (u == s)
            base_src_out += c;
        if (v == t)
            base_snk_in += c;
    }
    for (int u = 0; u < n_nodes; u++)
        base_end[u] = end[u];

    int f = 0;
    int a_end = na;
    for (;;) {
        memcpy(end, base_end, sizeof(int) * (size_t)n_nodes);
        memcpy(res, base_res, sizeof(double) * 2 * (size_t)na);
        double maxcap = base_max;
        double src_out = base_src_out;
        double snk_in = base_snk_in;
        /* this flow's terminal arcs follow the base arcs, sources first */
        int n_ends = src_ptr[f + 1] - src_ptr[f] + snk_ptr[f + 1] - snk_ptr[f];
        a_end = na + n_ends;
        for (int j = 0; j < n_ends; j++) {
            int a = na + j;
            int i = src_ptr[f] + j;
            int u, v;
            double c;
            if (i < src_ptr[f + 1]) {
                u = s;
                v = src_node[i];
                c = src_cap[i];
            } else {
                i = snk_ptr[f] + j - (src_ptr[f + 1] - src_ptr[f]);
                u = snk_node[i];
                v = t;
                c = snk_cap[i];
            }
            to[2 * a] = v;
            to[2 * a + 1] = u;
            res[2 * a] = c;
            res[2 * a + 1] = 0.0;
            adj[end[u]++] = 2 * a;
            adj[end[v]++] = 2 * a + 1;
            if (c > maxcap)
                maxcap = c;
            if (u == s)
                src_out += c;
            if (v == t)
                snk_in += c;
        }
        double value = solve(&g, s, t, eps[f], maxcap, src_out, snk_in);
        out[f] = value;
        residual_reach(&g, s, eps[f], reach + (size_t)f * n_nodes);
        f += 1;
        if (f == k || !(value < stop))
            break;
    }

    for (int a = 0; a < a_end; a++)
        out[k + a] = res[2 * a + 1];
    *solved = f;

    free(to); free(res); free(base_res); free(first); free(work); free(adj);
    return 0;
}
