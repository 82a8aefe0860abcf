"""Array kernels for the flow solver and geometric pair tests.

`dinic` and `residual_reachable` are plain Python loops over numpy arrays.
`disk_pairs` and `rect_pairs` are blocked numpy scans over integer columns:
int64 columns, or object columns of exact Python ints when the magnitudes
are too large for int64. Either way the pair tests are exact.
"""

from __future__ import annotations

import numpy as np

# Read by perfbench's environment record; there is no compiled path.
USING_NUMBA = False

# Rows per block of the pair scans; bounds the block's n-wide temporaries.
BLOCK = 256


def dinic(num_nodes, arc_to, arc_cap, adj_off, adj_arc, source, sink):
    # Residual arcs come in pairs: the partner of arc a is a ^ 1.
    # arc_cap is mutated in place and holds the residual capacities on return.
    level = np.empty(num_nodes, np.int64)
    it = np.empty(num_nodes, np.int64)
    queue = np.empty(num_nodes, np.int64)
    stack = np.empty(num_nodes + 1, np.int64)
    path = np.empty(num_nodes + 1, np.int64)
    flow = 0
    while True:
        for i in range(num_nodes):
            level[i] = -1
        level[source] = 0
        queue[0] = source
        head = 0
        tail = 1
        while head < tail:
            u = queue[head]
            head += 1
            for k in range(adj_off[u], adj_off[u + 1]):
                a = adj_arc[k]
                v = arc_to[a]
                if arc_cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue[tail] = v
                    tail += 1
        if level[sink] < 0:
            break
        for i in range(num_nodes):
            it[i] = adj_off[i]
        # Repeated DFS in the level graph until the blocking flow is complete.
        while True:
            top = 0
            stack[0] = source
            found = False
            while top >= 0:
                u = stack[top]
                if u == sink:
                    found = True
                    break
                advanced = False
                while it[u] < adj_off[u + 1]:
                    a = adj_arc[it[u]]
                    v = arc_to[a]
                    if arc_cap[a] > 0 and level[v] == level[u] + 1:
                        path[top] = a
                        top += 1
                        stack[top] = v
                        advanced = True
                        break
                    it[u] += 1
                if not advanced:
                    level[u] = -1
                    top -= 1
                    if top >= 0:
                        it[stack[top]] += 1
            if not found:
                break
            aug = arc_cap[path[0]]
            for i in range(1, top):
                if arc_cap[path[i]] < aug:
                    aug = arc_cap[path[i]]
            for i in range(top):
                a = path[i]
                arc_cap[a] -= aug
                arc_cap[a ^ 1] += aug
            flow += aug
    return flow


def residual_reachable(num_nodes, arc_to, arc_cap, adj_off, adj_arc, source):
    # BFS over arcs with positive residual capacity.
    seen = np.zeros(num_nodes, np.bool_)
    queue = np.empty(num_nodes, np.int64)
    seen[source] = True
    queue[0] = source
    head = 0
    tail = 1
    while head < tail:
        u = queue[head]
        head += 1
        for k in range(adj_off[u], adj_off[u + 1]):
            a = adj_arc[k]
            v = arc_to[a]
            if arc_cap[a] > 0 and not seen[v]:
                seen[v] = True
                queue[tail] = v
                tail += 1
    return seen


def _block_scan(n, block_hits):
    # Pairs i < j with block_hits(lo, hi)[i - lo, j] true, in row-major order.
    # block_hits(lo, hi) returns the boolean rows lo..hi-1 against all n columns.
    idx = np.arange(n, dtype=np.int64)
    cols_u = []
    cols_v = []
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        hit = block_hits(lo, hi)
        hit &= idx[None, :] > idx[lo:hi, None]
        ii, jj = np.nonzero(hit)
        cols_u.append(ii + lo)
        cols_v.append(jj)
    if not cols_u:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(cols_u), np.concatenate(cols_v)


def disk_pairs(xs, ys, rs):
    # Scaled integer coordinates; closed intersection (tangency counts).
    def block_hits(lo, hi):
        dx = xs[lo:hi, None] - xs[None, :]
        dy = ys[lo:hi, None] - ys[None, :]
        rr = rs[lo:hi, None] + rs[None, :]
        return dx * dx + dy * dy <= rr * rr

    return _block_scan(xs.size, block_hits)


def rect_pairs(x1, y1, x2, y2):
    # Closed-interval overlap on both axes.
    def block_hits(lo, hi):
        overlap_x = (x1[lo:hi, None] <= x2[None, :]) & (x1[None, :] <= x2[lo:hi, None])
        overlap_y = (y1[lo:hi, None] <= y2[None, :]) & (y1[None, :] <= y2[lo:hi, None])
        return overlap_x & overlap_y

    return _block_scan(x1.size, block_hits)
