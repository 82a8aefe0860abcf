"""End-to-end approximate vertex cover: kernelize, solve, complement, lift.

The pipeline computes the crown kernel, asks an independent set oracle for
the kernel's IS, takes the complement inside the kernel, and lifts it with
the forced vertices. If the oracle loses at most a (1-eps) factor on the
kernel, the lifted cover loses at most (1+eps); because that guarantee is
conditional on oracle quality, every result additionally carries an
unconditional a-posteriori ratio bound against the LP lower bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameter
from .graph import (
    VertexSet,
    WeightedGraph,
    complement_set,
    is_vertex_cover,
    vertex_set,
)
from .halfint import half_integral_solution, lp_value
from .kernelize import kernelize, lift
from .oracles import check_brute_cap, check_eps, default_brute_cap, exact_is


@dataclass(frozen=True)
class KernelStats:
    """Sizes and weights of the three partition classes."""

    free_size: int
    free_weight: int
    kernel_size: int
    kernel_weight: int
    forced_size: int
    forced_weight: int


@dataclass(frozen=True)
class ApproxResult:
    """A vertex cover of the input graph with its certificates."""

    cover: VertexSet
    cover_weight: int
    lp_lower_bound: Fraction
    kernel_stats: KernelStats
    oracle_name: str
    eps_requested: float
    certified_ratio_bound: Fraction | None
    swap_size: int | None = None


def approx_vc(g: WeightedGraph, oracle, eps: float = 0.0) -> ApproxResult:
    """Approximate minimum-weight vertex cover of `g` using `oracle`.

    `eps` is the requested approximation error; it must be 0 only when the
    oracle is exact (eps = 0 with a heuristic oracle would promise an
    optimality the pipeline cannot deliver). The certified ratio bound is
    cover weight over the LP lower bound, or None on edgeless instances.
    """
    check_eps(eps)
    if eps == 0 and getattr(oracle, "quality", "") != "exact":
        raise InvalidParameter("eps=0 requires the exact oracle")
    kernel = kernelize(g)
    if kernel.kernel_graph.n == 0:
        cover = lift(kernel, vertex_set(kernel.kernel_graph, ()))
    else:
        ind = oracle.solve(kernel.kernel_graph)
        cover = lift(kernel, complement_set(kernel.kernel_graph, ind))
    bound = kernel.lp_bound
    ratio = Fraction(cover.weight) / bound if bound > 0 else None
    return ApproxResult(
        cover=cover,
        cover_weight=cover.weight,
        lp_lower_bound=bound,
        kernel_stats=KernelStats(
            free_size=len(kernel.free),
            free_weight=kernel.free.weight,
            kernel_size=kernel.kernel_graph.n,
            kernel_weight=kernel.kernel_graph.total_weight,
            forced_size=len(kernel.forced),
            forced_weight=kernel.forced.weight,
        ),
        oracle_name=getattr(oracle, "name", type(oracle).__name__),
        eps_requested=float(eps),
        certified_ratio_bound=ratio,
        swap_size=getattr(oracle, "t", None),
    )


def exact_vc(g: WeightedGraph, cap: int | None = None) -> VertexSet:
    """Minimum-weight vertex cover: complement of the exact maximum IS.

    Raises TooLarge above the brute-force cap.
    """
    return complement_set(g, exact_is(g, cap=cap))


def matching_2approx_vc(g: WeightedGraph) -> VertexSet:
    """Both endpoints of a greedy maximal matching (edges scanned in order).

    Always a vertex cover; at most twice the optimum on unit weights.
    """
    matched = [False] * g.n
    for u, v in g.edges:
        if not matched[u] and not matched[v]:
            matched[u] = True
            matched[v] = True
    return vertex_set(g, (v for v in range(g.n) if matched[v]))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    exact_ratio: Fraction | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_result(
    g: WeightedGraph, res: ApproxResult, cap: int | None = None
) -> VerificationReport:
    """Re-check a result against its instance; failures land in the report.

    Revalidates the cover, its weight, the LP lower bound, the kernel
    statistics and the ratio bound; one max-flow serves both LP checks. When
    the instance is small enough for the brute-force cap, also reports the
    exact ratio against the true optimum. Raises InvalidParameter if `cap`
    breaks :func:`check_brute_cap`.
    """
    effective_cap = default_brute_cap() if cap is None else check_brute_cap(cap, "cap")
    checks: list[CheckResult] = []

    @functools.cache
    def lp_solution():
        return half_integral_solution(g)

    def run(name: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # report, never raise
            ok, detail = False, f"check crashed: {exc}"
        checks.append(CheckResult(name=name, passed=ok, detail=detail))

    def members_valid():
        ms = res.cover.members
        ok = all(0 <= v < g.n for v in ms) and list(ms) == sorted(set(ms))
        return ok, f"{len(ms)} vertices"

    def covers():
        ok = is_vertex_cover(g, res.cover)
        return ok, "covers all edges" if ok else "uncovered edge exists"

    def weight_matches():
        actual = sum(g.weights[v] for v in res.cover.members)
        ok = actual == res.cover_weight == res.cover.weight
        return ok, f"recomputed {actual}, reported {res.cover_weight}"

    def lp_matches():
        bound = lp_value(lp_solution(), g)
        return bound == res.lp_lower_bound, f"recomputed {bound}, reported {res.lp_lower_bound}"

    def kernel_matches():
        # LP value 0, 1/2, 1 (doubled: 0, 1, 2) puts a vertex in free, kernel, forced.
        sizes, weights = [0, 0, 0], [0, 0, 0]
        for w, t in zip(g.weights, lp_solution().twice_values):
            sizes[t] += 1
            weights[t] += w
        expected = KernelStats(
            free_size=sizes[0], free_weight=weights[0],
            kernel_size=sizes[1], kernel_weight=weights[1],
            forced_size=sizes[2], forced_weight=weights[2],
        )
        reported = res.kernel_stats
        detail = (
            f"free/kernel/forced recomputed {_stats_str(expected)},"
            f" reported {_stats_str(reported)}"
        )
        return expected == reported, detail

    def lp_below_cover():
        ok = res.lp_lower_bound <= res.cover_weight
        return ok, f"{res.lp_lower_bound} <= {res.cover_weight}"

    def ratio_matches():
        if res.lp_lower_bound == 0:
            ok = res.certified_ratio_bound is None
            return ok, "edgeless instance, ratio undefined"
        expected = Fraction(res.cover_weight) / res.lp_lower_bound
        ok = res.certified_ratio_bound == expected and expected >= 1
        return ok, f"{expected}"

    run("cover_members_valid", members_valid)
    run("cover_is_vertex_cover", covers)
    run("cover_weight_matches", weight_matches)
    run("lp_bound_matches", lp_matches)
    run("kernel_stats_match", kernel_matches)
    run("lp_bound_le_cover_weight", lp_below_cover)
    run("ratio_bound_matches", ratio_matches)

    exact_ratio: Fraction | None = None
    if g.n <= effective_cap:

        def exact_check():
            nonlocal exact_ratio
            opt = exact_vc(g, cap=effective_cap)
            ok = res.cover_weight >= opt.weight
            if opt.weight > 0:
                exact_ratio = Fraction(res.cover_weight, opt.weight)
                detail = f"optimum {opt.weight}, ratio {exact_ratio}"
            else:
                ok = ok and res.cover_weight == 0
                detail = "optimum 0"
            return ok, detail

        run("cover_weight_ge_optimum", exact_check)

    return VerificationReport(checks=tuple(checks), exact_ratio=exact_ratio)



def _stats_str(ks: KernelStats) -> str:
    return (
        f"sizes {ks.free_size}/{ks.kernel_size}/{ks.forced_size}"
        f" weights {ks.free_weight}/{ks.kernel_weight}/{ks.forced_weight}"
    )
