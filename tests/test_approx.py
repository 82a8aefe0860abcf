"""End-to-end cover pipeline, baselines, and result verification."""

import dataclasses
from fractions import Fraction

import pytest

from crowncover import (
    ExactOracle,
    GreedyOracle,
    InvalidParameter,
    LocalSearchOracle,
    approx_vc,
    build_graph,
    exact_is,
    exact_vc,
    is_vertex_cover,
    matching_2approx_vc,
    verify_result,
)
import crowncover.approx as approx_module
from crowncover.approx import ApproxResult

from conftest import brute_min_vc_weight, graph_family


def _c5():
    return build_graph(5, (1,) * 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def test_star_pipeline_returns_center():
    g = build_graph(4, (1, 1, 1, 1), [(0, 1), (0, 2), (0, 3)])
    res = approx_vc(g, ExactOracle(), 0.0)
    assert res.cover.members == (0,)
    assert res.cover_weight == 1
    assert res.lp_lower_bound == 1
    assert res.certified_ratio_bound == 1
    assert res.kernel_stats.kernel_size == 0
    assert res.kernel_stats.forced_size == 1
    assert res.kernel_stats.free_size == 3


def test_c5_pipeline():
    res = approx_vc(_c5(), ExactOracle(), 0.0)
    assert res.cover_weight == 3
    assert res.lp_lower_bound == Fraction(5, 2)
    assert res.certified_ratio_bound == Fraction(6, 5)
    assert is_vertex_cover(_c5(), res.cover)


def test_edgeless_pipeline():
    g = build_graph(3, (4, 4, 4), ())
    res = approx_vc(g, ExactOracle(), 0.0)
    assert res.cover.members == () and res.cover_weight == 0
    assert res.lp_lower_bound == 0
    assert res.certified_ratio_bound is None


def test_eps_validation():
    g = _c5()
    with pytest.raises(InvalidParameter):
        approx_vc(g, ExactOracle(), 1.0)
    with pytest.raises(InvalidParameter):
        approx_vc(g, ExactOracle(), -0.25)


def test_eps_zero_requires_exact_oracle():
    g = _c5()
    with pytest.raises(InvalidParameter):
        approx_vc(g, GreedyOracle(), 0.0)
    # fine with a declared error budget
    res = approx_vc(g, GreedyOracle(), 0.5)
    assert is_vertex_cover(g, res.cover)
    assert res.eps_requested == 0.5


def test_exact_pipeline_matches_brute_force():
    for g in graph_family(150, 12, 4, seed0=61):
        res = approx_vc(g, ExactOracle(), 0.0)
        assert is_vertex_cover(g, res.cover)
        assert res.cover_weight == brute_min_vc_weight(g)
        assert res.lp_lower_bound <= res.cover_weight


@pytest.mark.filterwarnings("ignore:local_search_is optimizes cardinality")
def test_heuristic_pipeline_always_yields_cover():
    for g in graph_family(80, 12, 3, seed0=62):
        for oracle in (GreedyOracle(), LocalSearchOracle(t=2)):
            res = approx_vc(g, oracle, 0.5)
            assert is_vertex_cover(g, res.cover)
            assert res.cover_weight >= brute_min_vc_weight(g)
            if res.lp_lower_bound > 0:
                assert res.certified_ratio_bound == Fraction(
                    res.cover_weight) / res.lp_lower_bound


def test_local_search_swap_size_recorded():
    g = _c5()
    res = approx_vc(g, LocalSearchOracle(t=3), 0.5)
    assert res.swap_size == 3
    assert approx_vc(g, ExactOracle(), 0.0).swap_size is None


def test_exact_vc_is_brute_minimum():
    for g in graph_family(60, 10, 5, seed0=63):
        c = exact_vc(g)
        assert is_vertex_cover(g, c)
        assert c.weight == brute_min_vc_weight(g)


def test_matching_cover_properties():
    for g in graph_family(100, 12, 1, seed0=64):
        c = matching_2approx_vc(g)
        assert is_vertex_cover(g, c)
        assert c.weight <= 2 * brute_min_vc_weight(g)


def test_matching_single_edge_ratio_exactly_two():
    g = build_graph(2, (1, 1), [(0, 1)])
    c = matching_2approx_vc(g)
    assert c.weight == 2
    assert brute_min_vc_weight(g) == 1


def test_verify_result_accepts_honest_result():
    g = _c5()
    res = approx_vc(g, ExactOracle(), 0.0)
    rep = verify_result(g, res)
    assert rep.passed
    assert rep.exact_ratio == 1
    names = [c.name for c in rep.checks]
    assert "cover_is_vertex_cover" in names
    assert "lp_bound_matches" in names


def test_verify_result_flags_tampering():
    g = _c5()
    res = approx_vc(g, ExactOracle(), 0.0)
    smaller = ApproxResult(
        cover=res.cover,
        cover_weight=res.cover_weight - 1,
        lp_lower_bound=res.lp_lower_bound,
        kernel_stats=res.kernel_stats,
        oracle_name=res.oracle_name,
        eps_requested=res.eps_requested,
        certified_ratio_bound=res.certified_ratio_bound,
    )
    rep = verify_result(g, smaller)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert "cover_weight_matches" in failed


def test_verify_result_flags_non_cover():
    g = _c5()
    res = approx_vc(g, ExactOracle(), 0.0)
    from crowncover import vertex_set

    broken = ApproxResult(
        cover=vertex_set(g, [0]),
        cover_weight=1,
        lp_lower_bound=res.lp_lower_bound,
        kernel_stats=res.kernel_stats,
        oracle_name=res.oracle_name,
        eps_requested=0.0,
        certified_ratio_bound=Fraction(2, 5),
    )
    rep = verify_result(g, broken)
    failed = {c.name for c in rep.checks if not c.passed}
    assert "cover_is_vertex_cover" in failed
    assert "ratio_bound_matches" in failed  # 2/5 < 1 is impossible


def test_verify_result_flags_kernel_stats_with_one_flow(monkeypatch):
    g = build_graph(4, (1, 1, 1, 1), [(0, 1), (0, 2), (0, 3)])
    res = approx_vc(g, ExactOracle(), 0.0)
    flows = []
    real = approx_module.half_integral_solution
    monkeypatch.setattr(approx_module, "half_integral_solution",
                        lambda h: flows.append(h) or real(h))
    assert verify_result(g, res).passed
    assert len(flows) == 1
    stats = dataclasses.replace(res.kernel_stats, forced_size=99, kernel_weight=7)
    rep = verify_result(g, dataclasses.replace(res, kernel_stats=stats))
    assert {c.name for c in rep.checks if not c.passed} == {"kernel_stats_match"}
    assert len(flows) == 2


def test_negative_cap_is_invalid_parameter():
    g = _c5()
    res = approx_vc(g, ExactOracle(), 0.0)
    with pytest.raises(InvalidParameter):
        exact_is(g, cap=-1)
    with pytest.raises(InvalidParameter):
        verify_result(g, res, cap=-1)


def test_kernel_stats_partition_the_graph():
    for g in graph_family(60, 12, 3, seed0=65):
        res = approx_vc(g, ExactOracle(), 0.0)
        ks = res.kernel_stats
        assert ks.free_size + ks.kernel_size + ks.forced_size == g.n
        assert ks.free_weight + ks.kernel_weight + ks.forced_weight == g.total_weight
