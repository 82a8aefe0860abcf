"""Disk and rectangle intersection graphs."""

from fractions import Fraction

import pytest

from crowncover import (
    Disk,
    InvalidParameter,
    InvalidShape,
    InvalidWeight,
    ShapeSet,
    build_shape_set,
    disk,
    disks_intersect,
    generate_instance,
    induced_subgraph,
    intersection_graph,
    rect,
    rects_intersect,
    restrict_shapes,
)


def test_far_disks_do_not_intersect():
    assert not disks_intersect(disk(0, 0, 1), disk(3, 0, 1))  # 9 > 4


def test_tangent_disks_intersect():
    assert disks_intersect(disk(0, 0, 2), disk(3, 0, 1))  # 9 <= 9


def test_rect_overlap_cases():
    assert rects_intersect(rect(0, 0, 2, 2), rect(1, 1, 3, 3))
    assert not rects_intersect(rect(0, 0, 1, 1), rect(2, 2, 3, 3))
    # shared boundary counts (closed sets)
    assert rects_intersect(rect(0, 0, 1, 1), rect(1, 0, 2, 1))
    assert rects_intersect(rect(0, 0, 1, 1), rect(1, 1, 2, 2))


def test_shape_validation():
    with pytest.raises(InvalidShape):
        disk(0, 0, 0)
    with pytest.raises(InvalidShape):
        disk(0, 0, -1)
    with pytest.raises(InvalidShape):
        rect(2, 0, 1, 3)
    with pytest.raises(InvalidShape):
        rect(0, 3, 1, 3)


def test_build_shape_set_checks_kind_and_weights():
    d = disk(0, 0, 1)
    r = rect(0, 0, 1, 1)
    with pytest.raises(InvalidShape):
        build_shape_set("disks", [d, r])
    with pytest.raises(InvalidParameter):
        build_shape_set("spheres", [d])
    from crowncover import InvalidWeight

    with pytest.raises(InvalidWeight):
        build_shape_set("disks", [d], weights=[0])
    s = build_shape_set("disks", [d])
    assert s.weights == (1,)


def test_intersection_graph_tangency_edge():
    s = build_shape_set("disks", [disk(0, 0, 2), disk(3, 0, 1), disk(10, 10, 1)])
    g, smap = intersection_graph(s)
    assert g.edges == ((0, 1),)
    assert smap == (0, 1, 2)
    assert g.weights == (1, 1, 1)


def test_intersection_graph_rational_coordinates():
    # denominators 3 and 7 share the scaled grid; tangency at distance 1
    a = disk(Fraction(1, 3), 0, Fraction(2, 3))
    b = disk(Fraction(4, 3), 0, Fraction(1, 3))  # distance 1, radii sum 1
    c = disk(3, 3, Fraction(1, 7))
    s = build_shape_set("disks", [a, b, c])
    g, _ = intersection_graph(s)
    assert g.edges == ((0, 1),)


def test_intersection_graph_huge_coordinates_exact_fallback():
    # magnitudes beyond the int64 guard: exact arithmetic must still decide
    big = 10**12
    s = build_shape_set(
        "disks",
        [disk(0, 0, big), disk(2 * big, 0, big), disk(4 * big + 1, 0, big)],
    )
    g, _ = intersection_graph(s)
    # first two tangent, third just out of reach of the second
    assert g.edges == ((0, 1),)


def test_empty_shape_set():
    g, smap = intersection_graph(ShapeSet(kind="disks", shapes=(), weights=()))
    assert g.n == 0 and smap == ()


def test_generate_deterministic():
    a = generate_instance("disks", 25, seed=9)
    b = generate_instance("disks", 25, seed=9)
    assert a == b
    c = generate_instance("disks", 25, seed=10)
    assert a != c
    assert len(generate_instance("rects", 0, seed=1)) == 0


def test_generate_tiny_radii_near_edgeless():
    s = generate_instance("disks", 50, seed=4, region=1000, size_range=(1, 1))
    g, _ = intersection_graph(s)
    assert len(g.edges) < 50 * 50 / 2


def test_generate_validation():
    with pytest.raises(InvalidParameter):
        generate_instance("disks", -1)
    with pytest.raises(InvalidParameter):
        generate_instance("disks", 5, region=0)
    with pytest.raises(InvalidParameter):
        generate_instance("disks", 5, size_range=(0, 3))


def test_restrict_full_and_empty():
    s = generate_instance("rects", 12, seed=2, region=15)
    g, smap = intersection_graph(s)
    assert restrict_shapes(s, range(12), smap) == s
    empty = restrict_shapes(s, [], smap)
    assert len(empty) == 0 and empty.kind == "rects"


def test_restrict_out_of_range():
    from crowncover import InvalidSet

    s = generate_instance("disks", 5, seed=2)
    _, smap = intersection_graph(s)
    with pytest.raises(InvalidSet):
        restrict_shapes(s, [7], smap)


@pytest.mark.parametrize("kind", ["disks", "rects"])
def test_restrict_commutes_with_induce(kind):
    import random

    rng = random.Random(77)
    for trial in range(40):
        n = rng.randint(0, 25)
        s = generate_instance(kind, n, seed=trial, region=12)
        g, smap = intersection_graph(s)
        subset = [v for v in range(n) if rng.random() < 0.5]
        sub, _ = induced_subgraph(g, subset)
        gr, _ = intersection_graph(restrict_shapes(s, subset, smap))
        assert gr == sub


def test_intersection_graph_still_checks_weights():
    s = ShapeSet(kind="disks", shapes=(disk(0, 0, 1), disk(1, 0, 1)), weights=(1, 0))
    with pytest.raises(InvalidWeight):
        intersection_graph(s)


def test_weighted_shapes_carry_weights_into_graph():
    s = build_shape_set(
        "disks", [disk(0, 0, 1), disk(1, 0, 1)], weights=[5, 7]
    )
    g, _ = intersection_graph(s)
    assert g.weights == (5, 7)
    assert g.edges == ((0, 1),)
