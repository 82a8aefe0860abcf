"""Kernels for the flow solver and geometric pair tests.

`dinic` and `residual_reachable` are plain Python loops over lists of
Python ints: a list index costs far less than reading one numpy scalar at a
time, and the flow arithmetic is exact.
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
    out = [adj_arc[adj_off[u]:adj_off[u + 1]] for u in range(num_nodes)]
    flow = 0
    while True:
        level = [-1] * num_nodes
        level[source] = 0
        queue = [source]
        for u in queue:
            # A node at the sink's level or beyond lies on no shortest path to it.
            if level[u] == level[sink]:
                break
            lv = level[u] + 1
            for a in out[u]:
                v = arc_to[a]
                if arc_cap[a] > 0 and level[v] < 0:
                    level[v] = lv
                    queue.append(v)
        if level[sink] < 0:
            break
        it = [0] * num_nodes
        # Repeated DFS in the level graph until the blocking flow is complete.
        while True:
            stack = [source]
            path = []
            while stack:
                u = stack[-1]
                if u == sink:
                    break
                arcs = out[u]
                lv = level[u] + 1
                for i in range(it[u], len(arcs)):
                    a = arcs[i]
                    if arc_cap[a] > 0 and level[arc_to[a]] == lv:
                        it[u] = i
                        path.append(a)
                        stack.append(arc_to[a])
                        break
                else:
                    # Dead end: drop u from the level graph for this phase.
                    level[u] = -1
                    stack.pop()
                    if stack:
                        path.pop()
                        it[stack[-1]] += 1
            if not stack:
                break
            aug = min(arc_cap[a] for a in path)
            for a in path:
                arc_cap[a] -= aug
                arc_cap[a ^ 1] += aug
            flow += aug
    return flow


def residual_reachable(num_nodes, arc_to, arc_cap, adj_off, adj_arc, source):
    # BFS over arcs with positive residual capacity; returns the reached nodes.
    seen = [False] * num_nodes
    seen[source] = True
    queue = [source]
    for u in queue:
        for a in adj_arc[adj_off[u]:adj_off[u + 1]]:
            v = arc_to[a]
            if arc_cap[a] > 0 and not seen[v]:
                seen[v] = True
                queue.append(v)
    return queue


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
