"""Crown partition and the weight-preserving vertex cover kernel.

An optimal half-integral LP solution splits the vertices into the zeros (an
independent set adjacent only to ones), the halves, and the ones. Some
minimum-weight vertex cover contains every one-vertex and no zero-vertex,
so solving the instance reduces to the subgraph induced by the halves: the
kernel. A kernel cover plus the forced ones lifts back to a cover of the
original graph of the same quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CrownViolation, NotACover
from .graph import (
    VertexSet,
    WeightedGraph,
    induced_subgraph,
    is_vertex_cover,
    vertex_set,
)
from .halfint import HalfIntegralSolution, half_integral_solution, lp_value


@dataclass(frozen=True)
class CrownPartition:
    """Disjoint split of the vertices by LP value: 0, 1/2, and 1."""

    zeros: VertexSet
    halves: VertexSet
    ones: VertexSet


@dataclass(frozen=True)
class Kernel:
    """The halves-induced subgraph plus the forced and free vertices of G.

    `back_map[i]` is the original id of kernel vertex i. `forced` (the ones)
    belongs to some minimum cover of G; `free` (the zeros) avoids one.
    `lp_bound` is the LP optimum of G, a lower bound on every cover of G.
    """

    kernel_graph: WeightedGraph
    forced: VertexSet
    free: VertexSet
    back_map: tuple[int, ...]
    lp_bound: Fraction


def partition(g: WeightedGraph, sol: HalfIntegralSolution) -> CrownPartition:
    """Split vertices by LP value and verify the crown structure.

    Raises CrownViolation if a zero-vertex has a neighbor outside the ones,
    which cannot happen for a feasible optimal solution.
    """
    twice = sol.twice_values
    for u, v in g.edges:
        if min(twice[u], twice[v]) == 0 and max(twice[u], twice[v]) < 2:
            raise CrownViolation(
                f"edge ({u}, {v}) joins a zero-vertex to a non-one vertex"
            )
    return CrownPartition(
        zeros=vertex_set(g, (v for v in range(g.n) if twice[v] == 0)),
        halves=vertex_set(g, (v for v in range(g.n) if twice[v] == 1)),
        ones=vertex_set(g, (v for v in range(g.n) if twice[v] == 2)),
    )


def kernelize(g: WeightedGraph) -> Kernel:
    """Full reduction: LP solve, crown partition, induced kernel subgraph."""
    sol = half_integral_solution(g)
    part = partition(g, sol)
    kernel_graph, back_map = induced_subgraph(g, part.halves)
    # LP optimality forbids isolated half-vertices (their value could drop to 0).
    for v in range(kernel_graph.n):
        if kernel_graph.degree(v) == 0:
            raise CrownViolation(
                f"vertex {back_map[v]} is isolated in the kernel; solution not optimal"
            )
    return Kernel(
        kernel_graph=kernel_graph,
        forced=part.ones,
        free=part.zeros,
        back_map=back_map,
        lp_bound=sol.objective,
    )


def lift(k: Kernel, c_kernel: VertexSet) -> VertexSet:
    """Map a kernel vertex cover back to a cover of the original graph.

    The result is the forced set plus the back-mapped kernel cover; its
    weight is w(c_kernel) + w(forced) since the back map preserves weights.
    Raises NotACover if `c_kernel` fails to cover the kernel graph.
    """
    if not is_vertex_cover(k.kernel_graph, c_kernel):
        raise NotACover("the given set does not cover the kernel graph")
    members = sorted(k.forced.members + tuple(k.back_map[v] for v in c_kernel.members))
    return VertexSet(members=tuple(members), weight=k.forced.weight + c_kernel.weight)


def kernel_density_check(k: Kernel) -> bool:
    """True iff the kernel's LP optimum equals half its total weight.

    Kernels produced by :func:`kernelize` always satisfy this; False signals
    a pipeline bug.
    """
    kg = k.kernel_graph
    sol = half_integral_solution(kg)
    return lp_value(sol, kg) == Fraction(kg.total_weight, 2)
