"""Kernels for the flow solver and geometric pair tests.

`dinic` and `residual_reachable` are plain Python loops over lists of
Python ints: a list index costs far less than reading one numpy scalar at a
time, and the flow arithmetic is exact.
`disk_pairs` and `rect_pairs` are grid-bucket scans over integer columns:
int64 columns, or object columns of exact Python ints when the magnitudes
are too large for int64. Either way the pair tests are exact. Each shape is
placed in a square cell whose side is the largest reach of the shapes on the
grid, so two shapes can meet only in the same or neighbouring cells; only
those candidate pairs get the exact test. Shapes whose reach is far above
the median go to a separate oversized list that is tested against all n, so
one giant cannot blow up the cell. The cost is O(n log n + candidates),
which is O(n + m) at bounded density; it reaches O(n^2) only when the
shapes really crowd a few cells. Candidates are generated and tested in
chunks of about _CHUNK pairs (a chunk never splits one partner range, so
it holds at most _CHUNK + n), and memory stays bounded then too.
"""

from __future__ import annotations

import numpy as np

# Read by perfbench's environment record; there is no compiled path.
USING_NUMBA = False

# Candidate pairs tested per chunk of the grid scan; bounds its temporaries.
_CHUNK = 1 << 16

# A shape is oversized when its reach is above this many times the median.
_OVERSIZED_FACTOR = 4


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


def _oversized(reach):
    """Split the shapes into the grid and the oversized list.

    Returns (big, side): big marks each shape whose reach is above
    _OVERSIZED_FACTOR times the median reach, and side, the largest reach of
    the rest, is the grid's cell side. The median shape is never oversized,
    so at least half the shapes stay on the grid.
    """
    typical = np.sort(reach)[reach.size // 2]
    big = reach > _OVERSIZED_FACTOR * typical
    return big, reach[~big].max()


def _grid_rank(cells):
    # Cell coordinates renumbered from 1 up, in order: adjacent occupied
    # coordinates stay adjacent, any larger gap becomes a gap of one. The
    # result is int64 even for object columns. No np.unique here or in
    # _grid_scan: it imports numpy.ma, about 10 ms on every run.
    by_cell = np.argsort(cells, kind="stable")
    gaps = np.diff(cells[by_cell])
    step = np.ones(cells.size, np.int64)
    step[1:] = gaps != 0
    step[1:] += gaps > 1
    rank = np.empty(cells.size, np.int64)
    rank[by_cell] = np.cumsum(step)
    return rank


def _grid_scan(gx, gy, reach, cols, hits):
    """Pairs i < j of shapes that meet, in row-major order.

    Shape i sits at (gx[i], gy[i]); two shapes can meet only when both
    coordinates differ by at most the larger of their reaches. cols are the
    shapes' columns, and hits(a, b) is the exact test on the lists of column
    values of the two sides of each candidate pair.
    """
    n = gx.size
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    big, side = _oversized(reach)
    grid = np.flatnonzero(~big)
    cx = _grid_rank(gx[grid] // side)
    cy = _grid_rank(gy[grid] // side)
    # y-rank 0 stays empty, so a key +- 1 that leaves its x-rank's cells
    # lands on no cell.
    width = int(cy.max()) + 1
    key = cx * width + cy
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    # Scan positions: the grid shapes by cell, then the oversized ones.
    order = np.concatenate([grid[by_key], np.flatnonzero(big)])
    cols = [col[order] for col in cols]
    ng = grid.size
    # Up to five partner ranges [lo, hi) of scan positions per position. A
    # grid shape takes the rest of its cell and the four cells (+1, -1),
    # (+1, 0), (+1, +1) and (0, +1), so each pair of cells is paired once.
    # An oversized shape takes every grid shape and the later oversized ones.
    lo = np.zeros((n, 5), np.int64)
    hi = np.zeros((n, 5), np.int64)
    lo[:ng, 0] = np.arange(1, ng + 1)
    hi[:ng, 0] = np.searchsorted(key, key, "right")
    for k, offset in enumerate((width - 1, width, width + 1, 1), 1):
        lo[:ng, k] = np.searchsorted(key, key + offset, "left")
        hi[:ng, k] = np.searchsorted(key, key + offset, "right")
    hi[ng:, 0] = ng
    lo[ng:, 1] = np.arange(ng + 1, n + 1)
    hi[ng:, 1] = n
    rows = np.repeat(np.arange(n, dtype=np.int64), 5)
    lo = lo.ravel()
    counts = hi.ravel() - lo
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(_CHUNK, ends[-1], _CHUNK), "left") + 1
    bounds = sorted({0, *cuts.tolist(), rows.size})
    cols_u = []
    cols_v = []
    for a, b in zip(bounds, bounds[1:]):
        c = counts[a:b]
        firsts = np.cumsum(c) - c
        u = np.repeat(rows[a:b], c)
        v = np.arange(firsts[-1] + c[-1]) + np.repeat(lo[a:b] - firsts, c)
        keep = hits([col[u] for col in cols], [col[v] for col in cols])
        u = order[u[keep]]
        v = order[v[keep]]
        cols_u.append(np.minimum(u, v))
        cols_v.append(np.maximum(u, v))
    us = np.concatenate(cols_u)
    vs = np.concatenate(cols_v)
    row_major = np.argsort(us * n + vs)
    return us[row_major], vs[row_major]


def disk_pairs(xs, ys, rs):
    # Scaled integer coordinates; closed intersection (tangency counts).
    def hits(a, b):
        (xa, ya, ra), (xb, yb, rb) = a, b
        dx = xa - xb
        dy = ya - yb
        rr = ra + rb
        return dx * dx + dy * dy <= rr * rr

    return _grid_scan(xs, ys, 2 * rs, (xs, ys, rs), hits)


def rect_pairs(x1, y1, x2, y2):
    # Closed-interval overlap on both axes, placed by the lower-left corner.
    def hits(a, b):
        (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = a, b
        overlap_x = (ax1 <= bx2) & (bx1 <= ax2)
        overlap_y = (ay1 <= by2) & (by1 <= ay2)
        return overlap_x & overlap_y

    return _grid_scan(x1, y1, np.maximum(x2 - x1, y2 - y1), (x1, y1, x2, y2), hits)
