"""Weighted simple graphs, induced subgraphs, and certificate predicates.

Vertices are dense 0-based integers. Weights are positive integers so that
every quantity downstream (flow values, LP objectives, cover weights) stays
exact. Unweighted instances are all-ones weights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import InvalidEdge, InvalidParameter, InvalidSet, InvalidWeight

Edge = tuple[int, int]


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable simple undirected graph with positive integer vertex weights.

    `edges` is normalized: endpoints ordered (u < v), deduplicated, sorted.
    Use :func:`build_graph` instead of constructing directly.
    """

    n: int
    weights: tuple[int, ...]
    edges: tuple[Edge, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def total_weight(self) -> int:
        return sum(self.weights)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) int64 array; empty graphs give shape (0, 2)."""
        if not self.edges:
            return np.empty((0, 2), dtype=np.int64)
        arr = np.array(self.edges, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]


@dataclass(frozen=True)
class VertexSet:
    """A set of vertices of some graph together with its total weight."""

    members: tuple[int, ...]
    weight: int

    @cached_property
    def as_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, v: int) -> bool:
        return v in self.as_set


def build_graph(n: int, weights: Iterable[int], edges: Iterable[Edge]) -> WeightedGraph:
    """Construct a normalized weighted graph.

    Parallel edges are silently deduplicated. Self-loops and out-of-range
    endpoints raise InvalidEdge; non-positive weights raise InvalidWeight.
    """
    ws = _checked_weights(n, weights)
    seen: set[Edge] = set()
    for u, v in edges:
        if u == v:
            raise InvalidEdge(f"self-loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise InvalidEdge(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        seen.add((u, v) if u < v else (v, u))
    return WeightedGraph(n=n, weights=ws, edges=tuple(sorted(seen)))


def _trusted_graph(n: int, weights: Iterable[int], edges: tuple[Edge, ...]) -> WeightedGraph:
    """A graph from edges that are already normalized: u < v, in range,
    unique and sorted. Only the weights are checked, as in build_graph."""
    return WeightedGraph(n=n, weights=_checked_weights(n, weights), edges=edges)


def _checked_weights(n: int, weights: Iterable[int]) -> tuple[int, ...]:
    ws = tuple(weights)
    if len(ws) != n:
        raise InvalidWeight(f"expected {n} weights, got {len(ws)}")
    for v, w in enumerate(ws):
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise InvalidWeight(f"vertex {v}: weight must be a positive integer, got {w!r}")
    return ws


def vertex_set(g: WeightedGraph, members: Iterable[int]) -> VertexSet:
    """Build a VertexSet for `g`, validating membership and computing weight."""
    ms = sorted(set(members))
    if ms and (ms[0] < 0 or ms[-1] >= g.n):
        bad = ms[0] if ms[0] < 0 else ms[-1]
        raise InvalidSet(f"vertex {bad} outside 0..{g.n - 1}")
    return VertexSet(members=tuple(ms), weight=sum(g.weights[v] for v in ms))


def complement_set(g: WeightedGraph, s: VertexSet) -> VertexSet:
    """The vertices of `g` not in `s`. Weights satisfy w(s) + w(comp) = w(g)."""
    return vertex_set(g, (v for v in range(g.n) if v not in s.as_set))


def induced_subgraph(g: WeightedGraph, s) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Subgraph of `g` induced by `s`, plus the back map (new id -> original id).

    `s` may be a VertexSet or any iterable of vertex ids. The i-th vertex of
    the subgraph is the i-th smallest member of `s` and keeps its original
    weight.
    """
    members = s.members if isinstance(s, VertexSet) else vertex_set(g, s).members
    if members and (members[0] < 0 or members[-1] >= g.n):
        raise InvalidSet("set members outside the graph's vertex range")
    index = {orig: new for new, orig in enumerate(members)}
    # members is sorted, so the renumbering is monotone and keeps g's edges
    # normalized.
    sub_edges = tuple(
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    )
    sub = _trusted_graph(len(members), (g.weights[v] for v in members), sub_edges)
    return sub, members


def is_vertex_cover(g: WeightedGraph, c: VertexSet) -> bool:
    """True iff every edge of `g` has at least one endpoint in `c`."""
    cs = c.as_set
    return all(u in cs or v in cs for u, v in g.edges)


def is_independent_set(g: WeightedGraph, i: VertexSet) -> bool:
    """True iff no edge of `g` has both endpoints in `i`."""
    ms = i.as_set
    return not any(u in ms and v in ms for u, v in g.edges)


def random_gnp_graph(
    n: int,
    p: float,
    weight_range: tuple[int, int] = (1, 1),
    seed: int = 0,
) -> WeightedGraph:
    """Erdos-Renyi G(n, p) with uniform integer weights; deterministic per seed."""
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    if not (0.0 <= p <= 1.0):
        raise InvalidParameter(f"edge probability must be in [0, 1], got {p}")
    lo, hi = weight_range
    if lo < 1 or hi < lo:
        raise InvalidParameter(f"weight range must satisfy 1 <= lo <= hi, got {weight_range}")
    rng = random.Random(seed)
    weights = [rng.randint(lo, hi) for _ in range(n)]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return build_graph(n, weights, edges)
