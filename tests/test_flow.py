"""Bipartite doubling network and max-flow / min-cut extraction."""

from fractions import Fraction

import pytest

from crowncover import InvalidWeight, build_bipartite_double, build_graph
from crowncover.errors import InconsistentCut
from crowncover.flow import _MAX_TOTAL_WEIGHT, max_flow, min_cut_cover

from conftest import brute_half_lp, graph_family


def test_network_shape_single_edge():
    g = build_graph(2, (1, 1), [(0, 1)])
    net = build_bipartite_double(g)
    assert net.node_count == 6
    assert net.source == 0 and net.sink == 1
    # 2 source arcs + 2 doubled edge arcs + 2 sink arcs
    assert len(net.tails) == 6
    assert net.inf_cap == 3  # total weight + 1


def _loop_network(g):
    # Arc-by-arc reference for the network's arc order and capacities.
    n, inf_cap = g.n, g.total_weight + 1
    arcs = [(0, 2 + v, g.weights[v]) for v in range(n)]
    for u, v in g.edges:
        arcs += [(2 + u, 2 + n + v, inf_cap), (2 + v, 2 + n + u, inf_cap)]
    arcs += [(2 + n + v, 1, g.weights[v]) for v in range(n)]
    return arcs


def test_network_arcs_match_loop_reference():
    edgeless = build_graph(3, (5, 5, 5), ())
    for g in [edgeless] + graph_family(20, 9, 6, seed0=10):
        net = build_bipartite_double(g)
        arcs = list(zip(net.tails.tolist(), net.heads.tolist(), net.caps.tolist()))
        assert arcs == _loop_network(g)


def test_max_flow_single_unit_edge():
    g = build_graph(2, (1, 1), [(0, 1)])
    net = build_bipartite_double(g)
    value, reach = max_flow(net)
    assert value == 2
    assert reach == {net.source}
    side1, side2 = min_cut_cover(net, reach)
    assert side1 == {0, 1} and side2 == set()


def test_max_flow_weighted_edge_saturates_light_side():
    g = build_graph(2, (3, 1), [(0, 1)])
    net = build_bipartite_double(g)
    value, reach = max_flow(net)
    assert value == 2
    # the weight-1 vertex is cut on both copies
    side1, side2 = min_cut_cover(net, reach)
    assert side1 == {1} and side2 == {1}


def test_max_flow_star_cuts_center():
    g = build_graph(4, (1, 1, 1, 1), [(0, 1), (0, 2), (0, 3)])
    net = build_bipartite_double(g)
    value, reach = max_flow(net)
    assert value == 2
    side1, side2 = min_cut_cover(net, reach)
    assert side1 == {0} and side2 == {0}


def test_edgeless_graph_zero_flow():
    g = build_graph(3, (5, 5, 5), ())
    net = build_bipartite_double(g)
    value, reach = max_flow(net)
    assert value == 0
    side1, side2 = min_cut_cover(net, reach)
    assert side1 == set() and side2 == set()


def test_flow_equals_twice_lp_on_random_graphs():
    for g in graph_family(60, 8, 5, seed0=7):
        net = build_bipartite_double(g)
        value, _ = max_flow(net)
        assert Fraction(value, 2) == brute_half_lp(g)


def test_cut_cover_weight_equals_flow_value():
    for g in graph_family(60, 8, 4, seed0=8):
        net = build_bipartite_double(g)
        value, reach = max_flow(net)
        side1, side2 = min_cut_cover(net, reach)
        cut_weight = sum(g.weights[v] for v in side1) + sum(g.weights[v] for v in side2)
        assert cut_weight == value


def test_cut_cover_covers_doubled_edges():
    # every doubled edge u1-v2 must have an endpoint in the extracted cover
    for g in graph_family(40, 7, 3, seed0=9):
        net = build_bipartite_double(g)
        _, reach = max_flow(net)
        side1, side2 = min_cut_cover(net, reach)
        for u, v in g.edges:
            assert u in side1 or v in side2
            assert v in side1 or u in side2


def test_inconsistent_reachability_rejected():
    g = build_graph(2, (1, 1), [(0, 1)])
    net = build_bipartite_double(g)
    with pytest.raises(InconsistentCut):
        min_cut_cover(net, frozenset({net.sink, net.source}))
    with pytest.raises(InconsistentCut):
        min_cut_cover(net, frozenset())


def test_infinite_arc_crossing_cut_rejected():
    # Nodes: s=0, t=1, copy1 = 2, 3, copy2 = 4, 5; the middle arcs are 2->5, 3->4.
    g = build_graph(2, (1, 1), [(0, 1)])
    net = build_bipartite_double(g)
    with pytest.raises(InconsistentCut, match=r"infinite-capacity arc 2->5 crosses the cut"):
        min_cut_cover(net, frozenset({net.source, net.copy1(0)}))


def test_first_crossing_arc_in_arc_order_is_reported():
    # Path 0-1-2: copy1 = 2, 3, 4, copy2 = 5, 6, 7. Middle arcs in order:
    # 2->6, 3->5, 3->7, 4->6. With 3, 4 and 5 reachable, 3->5 stays inside
    # and both 3->7 and 4->6 cross; the first of them in arc order is named.
    g = build_graph(3, (1, 1, 1), [(0, 1), (1, 2)])
    net = build_bipartite_double(g)
    middle = list(zip(net.tails.tolist(), net.heads.tolist()))[3:7]
    assert middle == [(2, 6), (3, 5), (3, 7), (4, 6)]
    with pytest.raises(InconsistentCut, match=r"infinite-capacity arc 3->7 crosses the cut"):
        min_cut_cover(net, frozenset({net.source, 3, 4, 5}))


def test_total_weight_overflow_guard():
    g = build_graph(2, (_MAX_TOTAL_WEIGHT, 1), [(0, 1)])
    with pytest.raises(InvalidWeight):
        build_bipartite_double(g)
