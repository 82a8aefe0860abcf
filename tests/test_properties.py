"""Randomized invariant checks over generated inputs."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from crowncover import (
    build_graph,
    build_shape_set,
    complement_set,
    epsilon_to_swap_size,
    half_integral_solution,
    induced_subgraph,
    is_independent_set,
    is_vertex_cover,
    kernelize,
    lp_value,
    matching_2approx_vc,
    parse_graph,
    parse_shapes,
    write_graph,
    write_shapes,
)
from crowncover.geometry import Disk


@st.composite
def graphs(draw, n_max=8, w_max=6):
    n = draw(st.integers(0, n_max))
    weights = draw(st.lists(st.integers(1, w_max), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        edges = []
    return build_graph(n, tuple(weights), edges)


@given(graphs())
def test_lp_solution_feasible_half_integral(g):
    sol = half_integral_solution(g)
    assert all(t in (0, 1, 2) for t in sol.twice_values)
    for u, v in g.edges:
        assert sol.twice_values[u] + sol.twice_values[v] >= 2
    assert 0 <= lp_value(sol, g) <= g.total_weight


@given(graphs())
def test_kernel_classes_partition_vertices(g):
    k = kernelize(g)
    seen = set(k.free.members) | set(k.forced.members) | set(k.back_map)
    assert len(k.free.members) + len(k.forced.members) + len(k.back_map) == g.n
    assert seen == set(range(g.n))
    # dense kernel: LP value is half the kernel weight
    kg = k.kernel_graph
    assert lp_value(half_integral_solution(kg), kg) == Fraction(kg.total_weight, 2)


@given(graphs())
def test_matching_cover_covers(g):
    c = matching_2approx_vc(g)
    assert is_vertex_cover(g, c)
    assert is_independent_set(g, complement_set(g, c))


@given(st.data())
def test_induced_subgraph_equals_build_graph(data):
    g = data.draw(graphs(n_max=12))
    members = sorted(data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)))
    index = {v: i for i, v in enumerate(members)}
    # Reversed and flipped, for build_graph to normalize.
    sub_edges = [(index[v], index[u]) for u, v in reversed(g.edges)
                 if u in index and v in index]
    sub, back = induced_subgraph(g, members)
    assert back == tuple(members)
    assert sub == build_graph(len(members), [g.weights[v] for v in members], sub_edges)


@given(graphs())
def test_graph_file_round_trip(g):
    text = write_graph(g)
    assert parse_graph(text) == g
    assert write_graph(parse_graph(text)) == text


_coord = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=24
)
_radius = st.fractions(
    min_value=Fraction(1, 24), max_value=Fraction(20), max_denominator=24
)


@given(st.lists(st.tuples(_coord, _coord, _radius), max_size=12))
@settings(max_examples=60)
def test_shapes_file_round_trip(raw):
    s = build_shape_set("disks", [Disk(cx, cy, r) for cx, cy, r in raw])
    text = write_shapes(s)
    assert parse_shapes(text) == s
    assert write_shapes(parse_shapes(text)) == text


@given(st.fractions(min_value=Fraction(1, 40), max_value=Fraction(1), max_denominator=40))
def test_swap_size_is_exact_ceiling(eps):
    t = epsilon_to_swap_size(eps)
    assert t >= 1
    assert t - 1 < 1 / eps**2 <= t or t == 1
