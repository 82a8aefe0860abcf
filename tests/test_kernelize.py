"""Crown partition and weight-preserving kernelization."""

from fractions import Fraction

import pytest

from crowncover import (
    CrownViolation,
    NotACover,
    build_graph,
    half_integral_solution,
    is_independent_set,
    kernelize,
    lift,
    partition,
    vertex_set,
)
from crowncover.halfint import HalfIntegralSolution
from crowncover.kernelize import kernel_density_check

from conftest import brute_min_vc_weight, graph_family


def _c5():
    return build_graph(5, (1,) * 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def test_star_kernel_is_empty():
    g = build_graph(4, (1, 1, 1, 1), [(0, 1), (0, 2), (0, 3)])
    k = kernelize(g)
    assert k.kernel_graph.n == 0
    assert k.forced.members == (0,)
    assert k.free.members == (1, 2, 3)
    assert k.back_map == ()


def test_c5_kernel_is_itself():
    g = _c5()
    k = kernelize(g)
    assert k.kernel_graph == g
    assert k.forced.members == () and k.free.members == ()
    assert k.back_map == (0, 1, 2, 3, 4)


def test_edgeless_graph_all_free():
    g = build_graph(3, (7, 8, 9), ())
    k = kernelize(g)
    assert k.kernel_graph.n == 0
    assert k.free.members == (0, 1, 2)
    assert k.forced.members == ()


def test_partition_classes_from_solution():
    g = build_graph(4, (1, 1, 1, 1), [(0, 1), (0, 2), (0, 3)])
    sol = half_integral_solution(g)
    part = partition(g, sol)
    assert part.ones.members == (0,)
    assert part.zeros.members == (1, 2, 3)
    assert part.halves.members == ()


def test_partition_rejects_crown_violation():
    # hand-built infeasible "solution": zero vertex adjacent to a half vertex
    g = build_graph(2, (1, 1), [(0, 1)])
    bad = HalfIntegralSolution(twice_values=(0, 1), twice_objective=1)
    with pytest.raises(CrownViolation):
        partition(g, bad)


def test_zeros_touch_only_ones(small_graphs):
    for g in small_graphs:
        sol = half_integral_solution(g)
        part = partition(g, sol)
        assert is_independent_set(g, part.zeros)
        ones = part.ones.as_set
        for z in part.zeros.members:
            assert g.adjacency[z] <= ones


def test_kernel_weights_preserved():
    for g in graph_family(120, 12, 4, seed0=31):
        k = kernelize(g)
        assert brute_min_vc_weight(g) == k.forced.weight + brute_min_vc_weight(
            k.kernel_graph
        )


def test_kernel_is_dense(small_graphs):
    for g in small_graphs:
        k = kernelize(g)
        assert kernel_density_check(k)
        kg = k.kernel_graph
        assert brute_min_vc_weight(kg) >= Fraction(kg.total_weight, 2)


def test_kernel_has_no_isolated_vertices(small_graphs):
    for g in small_graphs:
        kg = kernelize(g).kernel_graph
        for v in range(kg.n):
            assert kg.adjacency[v]


def test_lift_star():
    g = build_graph(4, (1, 1, 1, 1), [(0, 1), (0, 2), (0, 3)])
    k = kernelize(g)
    cover = lift(k, vertex_set(k.kernel_graph, ()))
    assert cover.members == (0,) and cover.weight == 1


def test_lift_rejects_non_cover():
    g = _c5()
    k = kernelize(g)
    with pytest.raises(NotACover):
        lift(k, vertex_set(k.kernel_graph, [0]))


def test_lift_maps_kernel_ids_back():
    # path 0-1-2-3 with heavy middle: kernel keeps a sub-path
    g = build_graph(6, (1, 4, 4, 1, 1, 1), [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    k = kernelize(g)
    # lifting the full kernel must cover the whole graph
    full = vertex_set(k.kernel_graph, range(k.kernel_graph.n))
    cover = lift(k, full)
    from crowncover import is_vertex_cover

    assert is_vertex_cover(g, cover)
    assert cover.weight == k.forced.weight + k.kernel_graph.total_weight
