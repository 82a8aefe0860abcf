"""The array kernels against independent references.

Pair scans are checked against the exact rational predicates
`disks_intersect` / `rects_intersect` applied pair by pair, and at
benchmark density against the blocked O(n^2) scan they replaced, on both
the int64 path and the object path for coordinates too large for int64. The
flow kernels are checked against networkx's maximum flow.
"""

import math
import random
from collections import deque
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from crowncover import (
    build_bipartite_double,
    build_graph,
    build_shape_set,
    disk,
    disks_intersect,
    generate_instance,
    intersection_graph,
    random_gnp_graph,
    rect,
    rects_intersect,
)
from crowncover import _kernels
from crowncover._kernels import (
    _grid_rank,
    _oversized,
    dinic,
    disk_pairs,
    rect_pairs,
    residual_reachable,
)
from crowncover.flow import _MAX_TOTAL_WEIGHT, max_flow
from crowncover.geometry import Disk, Rect, ShapeSet, _scaled_columns

SIZES = (0, 1, 2, 17, 300, 600)
SMALL_DENOMS = (1, 2, 4, 100)
MIXED_DENOMS = (1, 3, 7, 32, 96)
HUGE = 10**12
KINDS = {
    "disks": (("cx", "cy", "r"), disk_pairs, disks_intersect),
    "rects": (("x1", "y1", "x2", "y2"), rect_pairs, rects_intersect),
}


def _coord(rng, offset, denoms, span):
    d = rng.choice(denoms)
    return offset + Fraction(rng.randrange(span * d), d)


def _disks(n, seed, offset, denoms, span=60):
    rng = random.Random(seed)
    shapes = []
    for _ in range(n):
        d = rng.choice(denoms)
        r = Fraction(rng.randrange(d, 5 * d + 1), d)
        shapes.append(disk(_coord(rng, offset, denoms, span), _coord(rng, offset, denoms, span), r))
    return build_shape_set("disks", shapes)


def _rects(n, seed, offset, denoms, span=60, sides=((1, 6 * 4, 4), (1, 6 * 3, 3))):
    # sides: (lo, hi, denominator) of the width and of the height; by default
    # up to 6, in quarters and in thirds.
    rng = random.Random(seed)
    shapes = []
    (wlo, whi, wd), (hlo, hhi, hd) = sides
    for _ in range(n):
        x1 = _coord(rng, offset, denoms, span)
        y1 = _coord(rng, offset, denoms, span)
        w = Fraction(rng.randrange(wlo, whi + 1), wd)
        h = Fraction(rng.randrange(hlo, hhi + 1), hd)
        shapes.append(rect(x1, y1, x1 + w, y1 + h))
    return build_shape_set("rects", shapes)


def _shifted(s, offset):
    # The same shapes moved by (offset, offset): the same intersection graph.
    if s.kind == "disks":
        shapes = [Disk(d.cx + offset, d.cy + offset, d.r) for d in s.shapes]
    else:
        shapes = [Rect(r.x1 + offset, r.y1 + offset, r.x2 + offset, r.y2 + offset)
                  for r in s.shapes]
    return ShapeSet(kind=s.kind, shapes=tuple(shapes), weights=s.weights)


def _columns(s):
    return _scaled_columns([[getattr(sh, f) for sh in s.shapes] for f in KINDS[s.kind][0]])


def _brute_pairs(s):
    # Every pair i < j in row-major order whose integer bounding boxes touch,
    # then the exact rational test. Shapes with disjoint boxes cannot meet.
    if s.kind == "disks":
        boxes = [(d.cx - d.r, d.cy - d.r, d.cx + d.r, d.cy + d.r) for d in s.shapes]
    else:
        boxes = [(r.x1, r.y1, r.x2, r.y2) for r in s.shapes]
    b = np.array([(math.floor(x1), math.floor(y1), math.ceil(x2), math.ceil(y2))
                  for x1, y1, x2, y2 in boxes], dtype=np.int64).reshape(-1, 4)
    near = (b[:, None, 0] <= b[None, :, 2]) & (b[None, :, 0] <= b[:, None, 2])
    near &= (b[:, None, 1] <= b[None, :, 3]) & (b[None, :, 1] <= b[:, None, 3])
    intersect = KINDS[s.kind][2]
    return [
        (i, j)
        for i, j in zip(*(a.tolist() for a in np.nonzero(np.triu(near, 1))))
        if intersect(s.shapes[i], s.shapes[j])
    ]


def _check_pairs(s, dtype, expected=None):
    cols = _columns(s)
    assert all(c.dtype == (dtype if len(s) else np.int64) for c in cols)
    if expected is None:
        expected = _brute_pairs(s)
    us, vs = KINDS[s.kind][1](*cols)
    assert us.dtype == vs.dtype == np.int64
    assert list(zip(us.tolist(), vs.tolist())) == expected  # row-major order too
    g, shape_map = intersection_graph(s)
    assert g.n == len(s) and shape_map == tuple(range(len(s)))
    assert list(g.edges) == expected
    return len(expected)


def _check_both_paths(s, offset=0):
    # s moved by `offset` on the int64 path and by offset - HUGE or
    # offset + HUGE on the object path; every copy has the same pairs.
    expected = _brute_pairs(s)
    _check_pairs(_shifted(s, offset), np.int64, expected)
    _check_pairs(_shifted(s, offset + (HUGE if offset >= 0 else -HUGE)), object, expected)
    return expected


def test_disk_pairs_match_brute_force():
    edges = 0
    for n in SIZES:
        edges += _check_pairs(_disks(n, n, 0, SMALL_DENOMS), np.int64)
    assert edges > 1000


def test_rect_pairs_match_brute_force():
    edges = 0
    for n in SIZES:
        edges += _check_pairs(_rects(n, n, 0, SMALL_DENOMS), np.int64)
    assert edges > 1000


def test_disk_pairs_exact_past_int64_guard():
    edges = 0
    for n in SIZES:
        edges += _check_pairs(_disks(n, 100 + n, HUGE, MIXED_DENOMS), object)
    assert edges > 1000


def test_rect_pairs_exact_past_int64_guard():
    edges = 0
    for n in SIZES:
        edges += _check_pairs(_rects(n, 100 + n, HUGE, MIXED_DENOMS), object)
    assert edges > 1000


@pytest.mark.parametrize("make", [_disks, _rects])
def test_pairs_with_negative_coordinates(make):
    s = make(300, 5, -40, MIXED_DENOMS)
    assert max(sh.cx if s.kind == "disks" else sh.x2 for sh in s.shapes) < 25
    assert len(_check_both_paths(s)) > 300
    assert len(_check_both_paths(s, offset=-1000)) > 300


@pytest.mark.parametrize("kind", ["disks", "rects"])
def test_pairs_with_every_shape_in_one_cell(kind):
    # Every anchor in [0, 1)^2 and every radius or side at least 1: one grid
    # cell, and every pair meets.
    if kind == "disks":
        s = _disks(150, 9, 0, SMALL_DENOMS, span=1)
    else:
        s = _rects(150, 9, 0, SMALL_DENOMS, span=1, sides=((4, 24, 4), (3, 18, 3)))
    assert _check_both_paths(s) == [(i, j) for i in range(150) for j in range(i + 1, 150)]


def test_pairs_of_thin_rects():
    # 0.01 x 50 and 50 x 0.01: the cell is 50 wide, so nearly every pair is
    # a candidate and few of them meet.
    tall = _rects(200, 3, 0, SMALL_DENOMS, sides=((1, 1, 100), (50, 50, 1)))
    wide = _rects(200, 4, 0, SMALL_DENOMS, sides=((50, 50, 1), (1, 1, 100)))
    s = ShapeSet(kind="rects", shapes=tall.shapes + wide.shapes, weights=(1,) * 400)
    assert 1000 < len(_check_both_paths(s)) < 20000


@pytest.mark.parametrize("kind", ["disks", "rects"])
def test_pairs_with_one_giant_shape(kind):
    # One shape 1000 times the size of 2000 small ones, reaching a corner of
    # the region from far outside it, in the middle of the ids.
    if kind == "disks":
        small = _disks(2000, 21, 0, SMALL_DENOMS, span=150)
        giant = disk(-4970, 40, 5000)
    else:
        small = _rects(2000, 22, 0, SMALL_DENOMS, span=150)
        giant = rect(-5960, -5960, 40, 40)
    shapes = small.shapes[:1000] + (giant,) + small.shapes[1000:]
    s = ShapeSet(kind=kind, shapes=shapes, weights=(1,) * 2001)
    expected = _check_both_paths(s)
    giant_degree = sum(1000 in pair for pair in expected)
    assert 100 < giant_degree < 1000


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_giant_shape_does_not_set_the_cell_side(dtype):
    reach = np.array([3, 10, 7, 1, 10_000, 4, 5], dtype=dtype)
    big, side = _oversized(reach)
    assert big.tolist() == [False, False, False, False, True, False, False]
    assert side == 10
    # Median 2: 9 is above 4 * 2, 8 is not.
    big, side = _oversized(np.array([2, 9, 2, 8, 1], dtype=dtype))
    assert big.tolist() == [False, True, False, False, False] and side == 8


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_grid_rank_keeps_neighbouring_cells_neighbours(dtype):
    cells = np.array([5, 3, 3, 9, 4, -2, 10 * HUGE], dtype=dtype)
    rank = _grid_rank(cells)
    assert rank.dtype == np.int64
    assert rank.tolist() == [5, 3, 3, 7, 4, 1, 9]


def test_pairs_do_not_depend_on_the_chunk_size(monkeypatch):
    # Chunks cut anywhere, and two oversized shapes that meet each other,
    # with their partners across many chunks.
    s = _disks(120, 8, 0, SMALL_DENOMS, span=25)
    giants = (disk(12, 12, 100), disk(-150, 12, 80))
    s = ShapeSet(kind="disks", shapes=giants + s.shapes, weights=(1,) * 122)
    assert (0, 1) in _brute_pairs(s)
    expected = _brute_pairs(s)
    for chunk in (1, 7, 300):
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        _check_pairs(s, np.int64, expected)


def test_pair_order_is_row_major():
    # The ids run against the cells (cell side 2 along x: cells 3, 0, 2, 1,
    # 2, 0, 1), so the scan meets the pairs out of order; the output must
    # still be row-major.
    xs = np.array([6, 0, 4, 2, 5, 1, 3], dtype=np.int64)
    ys = np.zeros(7, np.int64)
    expected = [(i, j) for i in range(7) for j in range(i + 1, 7) if abs(xs[i] - xs[j]) <= 2]
    us, vs = disk_pairs(xs, ys, np.ones(7, np.int64))
    assert list(zip(us.tolist(), vs.tolist())) == expected
    us, vs = rect_pairs(xs, ys, xs + 2, ys + 1)
    assert list(zip(us.tolist(), vs.tolist())) == expected


BLOCK = 256


def _blocked_scan_reference(n, block_hits):
    # The O(n^2) scan the grid scan replaced: pairs i < j with
    # block_hits(lo, hi)[i - lo, j] true, in row-major order.
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
        return []
    return list(zip(np.concatenate(cols_u).tolist(), np.concatenate(cols_v).tolist()))


def _disk_pairs_reference(xs, ys, rs):
    def block_hits(lo, hi):
        dx = xs[lo:hi, None] - xs[None, :]
        dy = ys[lo:hi, None] - ys[None, :]
        rr = rs[lo:hi, None] + rs[None, :]
        return dx * dx + dy * dy <= rr * rr

    return _blocked_scan_reference(xs.size, block_hits)


def _rect_pairs_reference(x1, y1, x2, y2):
    def block_hits(lo, hi):
        overlap_x = (x1[lo:hi, None] <= x2[None, :]) & (x1[None, :] <= x2[lo:hi, None])
        overlap_y = (y1[lo:hi, None] <= y2[None, :]) & (y1[None, :] <= y2[lo:hi, None])
        return overlap_x & overlap_y

    return _blocked_scan_reference(x1.size, block_hits)


@pytest.mark.parametrize("kind, n, region, reference", [
    ("disks", 1500, 71, _disk_pairs_reference),
    ("rects", 5000, 350, _rect_pairs_reference),
])
def test_pairs_match_blocked_scan_at_benchmark_density(kind, n, region, reference):
    for seed in (3, 4):
        s = generate_instance(kind, n, seed=seed, region=region)
        expected = reference(*_columns(s))
        assert len(expected) > n // 2
        _check_pairs(s, np.int64, expected)
    _check_pairs(_shifted(s, HUGE), object, expected)


def _flow_graphs():
    return [random_gnp_graph(9, 0.4, weight_range=(1, 6), seed=seed) for seed in range(25)]


def _run_dinic(net):
    # The same list inputs max_flow builds.
    arc_to, adj_off, adj_arc = net._residual
    caps = [0] * len(arc_to)
    caps[0::2] = net.caps.tolist()
    flow = dinic(net.node_count, arc_to, caps, adj_off, adj_arc, net.source, net.sink)
    reach = residual_reachable(net.node_count, arc_to, caps, adj_off, adj_arc, net.source)
    return flow, set(reach)


def _nx_network(net):
    G = nx.DiGraph()
    G.add_nodes_from(range(net.node_count))
    for t, h, c in zip(net.tails.tolist(), net.heads.tolist(), net.caps.tolist()):
        G.add_edge(t, h, capacity=c)
    return G


def _nx_residual_reachable(G, flow, source):
    # Forward residual c - f, backward residual f, over networkx's own flow.
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        nbrs = [v for v, c in G.succ[u].items() if c["capacity"] - flow[u][v] > 0]
        nbrs += [v for v in G.pred[u] if flow[v][u] > 0]
        for v in nbrs:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def test_dinic_matches_networkx():
    for g in _flow_graphs():
        net = build_bipartite_double(g)
        flow, _ = _run_dinic(net)
        assert flow == nx.maximum_flow_value(_nx_network(net), net.source, net.sink)


def test_residual_reachable_matches_networkx():
    # The residual-reachable set of any maximum flow is the unique minimal min
    # cut, so it cannot depend on which maximum flow the solver found.
    for g in _flow_graphs():
        net = build_bipartite_double(g)
        _, reach = _run_dinic(net)
        G = _nx_network(net)
        _, flow = nx.maximum_flow(G, net.source, net.sink)
        assert reach == _nx_residual_reachable(G, flow, net.source)


def _check_max_flow(g):
    net = build_bipartite_double(g)
    value, reach = max_flow(net)
    G = _nx_network(net)
    nx_value, flow = nx.maximum_flow(G, net.source, net.sink)
    assert value == nx_value
    assert reach == _nx_residual_reachable(G, flow, net.source)
    return net, value


def test_max_flow_matches_networkx_at_size():
    g, _ = intersection_graph(generate_instance("disks", 300, seed=11, region=40))
    assert g.m > 1000
    _check_max_flow(g)
    g = random_gnp_graph(120, 0.1, weight_range=(1, 10**6), seed=5)
    assert g.m > 500
    _check_max_flow(g)


def test_max_flow_exact_at_weight_limit():
    # Weights summing to just under the guard: every capacity and the flow
    # value must stay exact Python ints on the list path.
    weights = (2**60, 2**61, 2**60 - 3)
    g = build_graph(3, weights, [(0, 1), (1, 2), (0, 2)])
    assert g.total_weight + 1 == _MAX_TOTAL_WEIGHT - 2
    net, value = _check_max_flow(g)
    assert net.inf_cap == _MAX_TOTAL_WEIGHT - 2
    # The LP optimum takes vertices 0 and 2 (2**61 - 3, below the all-halves
    # 2**61 - 3/2); the flow is twice that.
    assert value == 2 * (weights[0] + weights[2]) and type(value) is int
