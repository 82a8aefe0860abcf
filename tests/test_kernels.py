"""The array kernels against independent references.

Pair scans are checked against the exact rational predicates
`disks_intersect` / `rects_intersect` applied pair by pair, on both the
int64 path and the object path for coordinates too large for int64. The
flow kernels are checked against networkx's maximum flow.
"""

import math
import random
from collections import deque
from fractions import Fraction

import networkx as nx
import numpy as np

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
from crowncover._kernels import dinic, disk_pairs, rect_pairs, residual_reachable
from crowncover.flow import _MAX_TOTAL_WEIGHT, max_flow
from crowncover.geometry import _scaled_columns

SIZES = (0, 1, 2, 17, 300, 600)  # 300 and 600 cross the 256-row block
SMALL_DENOMS = (1, 2, 4, 100)
MIXED_DENOMS = (1, 3, 7, 32, 96)
HUGE = 10**12


def _coord(rng, offset, denoms, span):
    d = rng.choice(denoms)
    return offset + Fraction(rng.randrange(span * d), d)


def _disks(n, seed, offset, denoms):
    rng = random.Random(seed)
    shapes = []
    for _ in range(n):
        d = rng.choice(denoms)
        r = Fraction(rng.randrange(d, 5 * d + 1), d)
        shapes.append(disk(_coord(rng, offset, denoms, 60), _coord(rng, offset, denoms, 60), r))
    return build_shape_set("disks", shapes)


def _rects(n, seed, offset, denoms):
    rng = random.Random(seed)
    shapes = []
    for _ in range(n):
        x1 = _coord(rng, offset, denoms, 60)
        y1 = _coord(rng, offset, denoms, 60)
        w = Fraction(rng.randrange(1, 6 * 4 + 1), 4)  # sides up to 6, in quarters
        h = Fraction(rng.randrange(1, 6 * 3 + 1), 3)  # and in thirds
        shapes.append(rect(x1, y1, x1 + w, y1 + h))
    return build_shape_set("rects", shapes)


def _brute_pairs(shapes, fields, intersect):
    # Every pair i < j in row-major order. No shape here is wider than 10, so
    # a pair whose integer parts of x or y differ by more than 11 cannot meet;
    # every other pair gets the exact rational test.
    cells = [(math.floor(getattr(sh, fields[0])), math.floor(getattr(sh, fields[1])))
             for sh in shapes]
    n = len(shapes)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(cells[i][0] - cells[j][0]) <= 11
        and abs(cells[i][1] - cells[j][1]) <= 11
        and intersect(shapes[i], shapes[j])
    ]


def _check_pairs(s, fields, pairs, intersect, dtype):
    cols = _scaled_columns([[getattr(sh, f) for sh in s.shapes] for f in fields])
    assert all(c.dtype == (dtype if len(s) else np.int64) for c in cols)
    expected = _brute_pairs(s.shapes, fields, intersect)
    us, vs = pairs(*cols)
    assert us.dtype == vs.dtype == np.int64
    assert list(zip(us.tolist(), vs.tolist())) == expected  # row-major order too
    g, shape_map = intersection_graph(s)
    assert g.n == len(s) and shape_map == tuple(range(len(s)))
    assert list(g.edges) == expected
    return len(expected)


def test_disk_pairs_match_brute_force():
    edges = 0
    for n in SIZES:
        edges += _check_pairs(_disks(n, n, 0, SMALL_DENOMS), ("cx", "cy", "r"),
                              disk_pairs, disks_intersect, np.int64)
    assert edges > 1000


def test_rect_pairs_match_brute_force():
    edges = 0
    for n in SIZES:
        edges += _check_pairs(_rects(n, n, 0, SMALL_DENOMS), ("x1", "y1", "x2", "y2"),
                              rect_pairs, rects_intersect, np.int64)
    assert edges > 1000


def test_disk_pairs_exact_past_int64_guard():
    edges = 0
    for n in SIZES:
        edges += _check_pairs(_disks(n, 100 + n, HUGE, MIXED_DENOMS), ("cx", "cy", "r"),
                              disk_pairs, disks_intersect, object)
    assert edges > 1000


def test_rect_pairs_exact_past_int64_guard():
    edges = 0
    for n in SIZES:
        edges += _check_pairs(_rects(n, 100 + n, HUGE, MIXED_DENOMS), ("x1", "y1", "x2", "y2"),
                              rect_pairs, rects_intersect, object)
    assert edges > 1000


def test_pair_order_is_row_major(monkeypatch):
    monkeypatch.setattr(_kernels, "BLOCK", 2)
    xs = np.arange(5, dtype=np.int64)
    ys = np.zeros(5, np.int64)
    rs = np.full(5, 2, np.int64)
    us, vs = disk_pairs(xs, ys, rs)
    assert list(zip(us.tolist(), vs.tolist())) == [
        (i, j) for i in range(5) for j in range(i + 1, 5)
    ]
    us, vs = rect_pairs(xs, ys, xs + 4, ys + 1)
    assert list(zip(us.tolist(), vs.tolist())) == [
        (i, j) for i in range(5) for j in range(i + 1, 5)
    ]


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
