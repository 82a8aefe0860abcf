"""Independent set oracles: exact branch and bound, greedy, local search."""

import random
import warnings

import pytest

from crowncover import (
    ExactOracle,
    GreedyOracle,
    InvalidParameter,
    InvalidSwapSize,
    LocalSearchOracle,
    TooLarge,
    build_graph,
    default_brute_cap,
    epsilon_to_swap_size,
    exact_is,
    generate_instance,
    greedy_is,
    intersection_graph,
    is_independent_set,
    local_search_is,
    make_oracle,
    random_gnp_graph,
    vertex_set,
)
from crowncover.oracles import _greedy_is_ordered

from conftest import brute_max_is_weight, graph_family, has_improving_swap

# 8-vertex instance where greedy stalls at 2, a 2-swap reaches the optimum 3
_HARD8_EDGES = (
    (0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (1, 3), (1, 6), (1, 7),
    (2, 3), (2, 5), (2, 6), (2, 7), (3, 4), (3, 6), (3, 7), (4, 5),
    (4, 6), (4, 7), (6, 7),
)


def _hard8():
    return build_graph(8, (1,) * 8, _HARD8_EDGES)


def test_exact_is_weighted_edge_prefers_heavy():
    g = build_graph(2, (3, 1), [(0, 1)])
    assert exact_is(g).members == (0,)


def test_exact_is_triangle_takes_heaviest():
    g = build_graph(3, (2, 3, 4), [(0, 1), (1, 2), (0, 2)])
    s = exact_is(g)
    assert s.members == (2,) and s.weight == 4


def test_exact_is_matches_brute_force(small_graphs):
    for g in small_graphs:
        s = exact_is(g)
        assert is_independent_set(g, s)
        assert s.weight == brute_max_is_weight(g)


def test_exact_is_edgeless_takes_everything():
    g = build_graph(3, (1, 2, 3), ())
    assert exact_is(g).members == (0, 1, 2)


def test_exact_is_cap():
    g = random_gnp_graph(12, 0.3, seed=1)
    with pytest.raises(TooLarge):
        exact_is(g, cap=11)
    assert exact_is(g, cap=12).weight == brute_max_is_weight(g)


def test_cap_env_override(monkeypatch):
    monkeypatch.delenv("CROWNCOVER_BRUTE_CAP", raising=False)
    assert default_brute_cap() == 30
    monkeypatch.setenv("CROWNCOVER_BRUTE_CAP", "8")
    assert default_brute_cap() == 8
    g = random_gnp_graph(10, 0.3, seed=2)
    with pytest.raises(TooLarge):
        exact_is(g)


def test_greedy_star_picks_leaves():
    g = build_graph(4, (1, 1, 1, 1), [(0, 1), (0, 2), (0, 3)])
    assert greedy_is(g).members == (1, 2, 3)


def test_greedy_weight_degree_rule():
    g = build_graph(2, (3, 1), [(0, 1)])
    assert greedy_is(g).members == (0,)


def test_greedy_always_independent_and_maximal(small_graphs):
    for g in small_graphs:
        s = greedy_is(g)
        assert is_independent_set(g, s)
        chosen = s.as_set
        for v in range(g.n):
            # maximal: every outside vertex has a chosen neighbor
            assert v in chosen or g.adjacency[v] & chosen


def test_greedy_deterministic(small_graphs):
    for g in small_graphs[:30]:
        assert greedy_is(g) == greedy_is(g)


def _greedy_rescan_reference(g, tiebreak):
    """The O(n^2) greedy: rescan every remaining vertex for each pick."""
    remaining = set(range(g.n))
    adj = g.adjacency
    weights = g.weights
    chosen = []
    while remaining:
        best = -1
        best_w = 0
        best_d = 0
        for v in sorted(remaining):
            d = len(adj[v] & remaining)
            if best < 0:
                better = True
            else:
                lhs = weights[v] * (best_d + 1)
                rhs = best_w * (d + 1)
                better = lhs > rhs or (lhs == rhs and tiebreak[v] < tiebreak[best])
            if better:
                best, best_w, best_d = v, weights[v], d
        chosen.append(best)
        remaining -= adj[best]
        remaining.discard(best)
    return vertex_set(g, chosen)


def _assert_matches_reference(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    for tiebreak in (tuple(range(g.n)), tuple(perm)):
        assert _greedy_is_ordered(g, tiebreak) == _greedy_rescan_reference(g, tiebreak)


@pytest.mark.parametrize("weight_range", [(1, 1), (1, 3), (1, 10**6), (2**60, 2**60 + 5)])
def test_greedy_heap_matches_rescan_reference_gnp(weight_range):
    for seed in range(20):
        n = 5 + 7 * seed
        for p in (0.1, 0.4):
            g = random_gnp_graph(n, p, weight_range=weight_range, seed=seed)
            _assert_matches_reference(g, seed)
    for n in (0, 1, 9):
        g = random_gnp_graph(n, 0.0, weight_range=weight_range, seed=n)
        assert not g.edges
        _assert_matches_reference(g, n)
        assert greedy_is(g).members == tuple(range(n))


def test_greedy_heap_matches_rescan_reference_disks():
    for n, seed in ((50, 1), (200, 2), (400, 3), (600, 4)):
        g, _ = intersection_graph(generate_instance("disks", n, seed=seed, region=50))
        assert len(g.edges) > n
        _assert_matches_reference(g, seed)


def test_greedy_key_is_exact_past_float_precision():
    # (2^53 + 1) / 2 rounds to 2^53 / 2 as a float; only exact keys see the
    # heavier vertex.
    g = build_graph(2, (2**53, 2**53 + 1), [(0, 1)])
    assert greedy_is(g).members == (1,)


def test_greedy_key_scale_separates_close_scores():
    # Scores 1/3 (centre 0) and 1/2 (leaves) with D = 3: scaled by D both
    # floor to 1 and the tie goes to the centre; scaled by D^2 they are 3 and 4.
    g = build_graph(3, (1, 1, 1), [(0, 1), (0, 2)])
    assert greedy_is(g).members == (1, 2)


def test_local_search_improves_over_greedy_stall():
    g = _hard8()
    assert greedy_is(g).members == (1, 5)
    assert local_search_is(g, 1, seed=0).members == (1, 5)
    assert local_search_is(g, 2, seed=0).members == (1, 2, 4)
    assert exact_is(g).weight == 3


def test_local_search_other_seed_hits_other_optimum():
    # a different greedy tie-break start can end in a smaller 2-swap-optimal set
    g = _hard8()
    s = local_search_is(g, 2, seed=5)
    assert s.members == (3, 5)
    assert not has_improving_swap(g, s.members, 2)


def test_local_search_deterministic():
    g = _hard8()
    for t in (1, 2, 3):
        for seed in (0, 1, 7):
            a = local_search_is(g, t, seed=seed)
            b = local_search_is(g, t, seed=seed)
            assert a == b


def test_local_search_swap_size_validation():
    g = _hard8()
    with pytest.raises(InvalidSwapSize):
        local_search_is(g, 0)
    with pytest.raises(InvalidSwapSize):
        local_search_is(g, -2)


def test_local_search_warns_on_weights():
    g = build_graph(2, (3, 1), [(0, 1)])
    with pytest.warns(UserWarning):
        local_search_is(g, 1)


def test_local_search_no_improving_swap_left():
    for g in graph_family(60, 10, 1, seed0=51):
        for t in (1, 2, 3):
            s = local_search_is(g, t, seed=3)
            assert is_independent_set(g, s)
            assert not has_improving_swap(g, s.members, t)


def test_local_search_quality_monotone_in_t():
    for g in graph_family(40, 10, 1, seed0=52):
        sizes = [len(local_search_is(g, t, seed=0)) for t in (1, 2, 3)]
        assert sizes == sorted(sizes)


@pytest.mark.parametrize(
    "eps,expected",
    [
        ("0.5", 4),
        (0.5, 4),
        ("0.1", 100),
        (0.1, 100),
        (1, 1),
        ("0.3", 12),
        (0.25, 16),
    ],
)
def test_epsilon_to_swap_size(eps, expected):
    assert epsilon_to_swap_size(eps) == expected


def test_epsilon_to_swap_size_scaling_constant():
    assert epsilon_to_swap_size("0.5", c=2) == 8
    assert epsilon_to_swap_size("0.5", c="1/2") == 2


@pytest.mark.parametrize("eps", [0, -0.1, 1.5, "2"])
def test_epsilon_to_swap_size_rejects_out_of_range(eps):
    with pytest.raises(InvalidParameter):
        epsilon_to_swap_size(eps)


@pytest.mark.parametrize("name", ["exact", "greedy", "local-search"])
def test_make_oracle_checks_every_parameter(name):
    for kwargs in ({"eps": 1.0}, {"eps": -0.5}, {"swap_size": 0}, {"cap": -1}):
        with pytest.raises((InvalidParameter, InvalidSwapSize)):
            make_oracle(name, **kwargs)


def test_make_oracle_names_and_types():
    assert isinstance(make_oracle("exact"), ExactOracle)
    assert isinstance(make_oracle("greedy"), GreedyOracle)
    ls = make_oracle("local-search", eps=0.5)
    assert isinstance(ls, LocalSearchOracle) and ls.t == 4
    assert make_oracle("local-search", swap_size=7).t == 7
    assert make_oracle("local-search").t == 1
    with pytest.raises(InvalidParameter):
        make_oracle("simplex")


def test_oracles_return_independent_sets(small_graphs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for g in small_graphs[:40]:
            for oracle in (ExactOracle(), GreedyOracle(), LocalSearchOracle(t=2)):
                assert is_independent_set(g, oracle.solve(g))
