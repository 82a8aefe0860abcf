"""Bipartite-doubled flow network and its exact max-flow / min-cut solver.

A graph G with positive integer weights is doubled into a bipartite graph
(two copies of every vertex, each graph edge becoming two opposite-copy
edges) and wired between a source and a sink. The s-t max flow equals the
minimum weight of a bipartite vertex cover of the doubling, and the residual
reachability set yields a canonical minimum cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import InconsistentCut, InvalidWeight
from .graph import WeightedGraph

# The network's tails/heads/caps are int64 arrays; bounding the infinite
# sentinel keeps every capacity exact in them. The solver itself runs on
# Python ints.
_MAX_TOTAL_WEIGHT = 2**62


@dataclass(frozen=True)
class FlowNetwork:
    """The doubled s-t network of a weighted graph.

    Node numbering: s = 0, t = 1, first copy of vertex v = 2 + v, second
    copy = 2 + n + v. Arcs are stored in construction order: n source arcs,
    2m middle arcs (infinite capacity, represented by `inf_cap`), n sink arcs.
    """

    graph_n: int
    tails: np.ndarray
    heads: np.ndarray
    caps: np.ndarray
    inf_cap: int

    @property
    def node_count(self) -> int:
        return 2 * self.graph_n + 2

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return 1

    def copy1(self, v: int) -> int:
        return 2 + v

    def copy2(self, v: int) -> int:
        return 2 + self.graph_n + v

    @cached_property
    def _residual(self) -> tuple[list[int], list[int], list[int]]:
        """CSR adjacency over paired residual arcs (arc a's partner is a ^ 1), as lists."""
        m = len(self.tails)
        arc_to = np.empty(2 * m, np.int64)
        arc_to[0::2] = self.heads
        arc_to[1::2] = self.tails
        tail_of = np.empty(2 * m, np.int64)
        tail_of[0::2] = self.tails
        tail_of[1::2] = self.heads
        adj_arc = np.argsort(tail_of, kind="stable")
        counts = np.bincount(tail_of, minlength=self.node_count)
        adj_off = np.zeros(self.node_count + 1, np.int64)
        np.cumsum(counts, out=adj_off[1:])
        return arc_to.tolist(), adj_off.tolist(), adj_arc.tolist()


def build_bipartite_double(g: WeightedGraph) -> FlowNetwork:
    """Construct the doubled flow network for `g` with deterministic arc order."""
    if g.total_weight + 1 > _MAX_TOTAL_WEIGHT:
        raise InvalidWeight(
            f"total weight {g.total_weight} too large for exact 64-bit flow arithmetic"
        )
    n, m = g.n, g.m
    inf_cap = g.total_weight + 1
    copy = np.arange(n, dtype=np.int64)
    ends = g.edge_array
    # Arc order: n source arcs, then (u1->v2, v1->u2) per edge, then n sink arcs.
    tails = np.concatenate((np.zeros(n, np.int64), (2 + ends).ravel(), 2 + n + copy))
    heads = np.concatenate((2 + copy, (2 + n + ends[:, ::-1]).ravel(), np.ones(n, np.int64)))
    weights = np.array(g.weights, dtype=np.int64)
    caps = np.concatenate((weights, np.full(2 * m, inf_cap, np.int64), weights))
    for arr in (tails, heads, caps):
        arr.flags.writeable = False
    return FlowNetwork(graph_n=n, tails=tails, heads=heads, caps=caps, inf_cap=inf_cap)


def max_flow(net: FlowNetwork) -> tuple[int, frozenset[int]]:
    """Exact s-t max flow of `net` and the canonical minimum-cut source side.

    Returns (flow_value, residual_reachable) where residual_reachable is the
    set of nodes reachable from s in the residual network of a maximum flow.
    Deterministic: blocking flow over a fixed adjacency order.
    """
    arc_to, adj_off, adj_arc = net._residual
    arc_cap = [0] * len(arc_to)
    arc_cap[0::2] = net.caps.tolist()
    flow = _kernels.dinic(
        net.node_count, arc_to, arc_cap, adj_off, adj_arc, net.source, net.sink
    )
    reach = _kernels.residual_reachable(
        net.node_count, arc_to, arc_cap, adj_off, adj_arc, net.source
    )
    return flow, frozenset(reach)


def min_cut_cover(
    net: FlowNetwork, residual_reachable: frozenset[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Bipartite vertex cover of the doubling extracted from the canonical cut.

    Returns (side1, side2): original vertex ids whose first copy (not
    reachable) respectively second copy (reachable) enters the cover. Raises
    InconsistentCut if an infinite-capacity arc crosses the cut, which would
    mean the reachability set did not come from a maximum flow.
    """
    n = net.graph_n
    reach = residual_reachable
    if net.source not in reach or net.sink in reach:
        raise InconsistentCut("source must be reachable and sink unreachable")
    in_reach = np.zeros(net.node_count, np.bool_)
    in_reach[list(reach)] = True
    side1 = frozenset(np.flatnonzero(~in_reach[2 : 2 + n]).tolist())
    side2 = frozenset(np.flatnonzero(in_reach[2 + n :]).tolist())
    crossing = (net.caps == net.inf_cap) & in_reach[net.tails] & ~in_reach[net.heads]
    if crossing.any():
        a = int(np.argmax(crossing))  # the first crossing arc in arc order
        raise InconsistentCut(
            f"infinite-capacity arc {int(net.tails[a])}->{int(net.heads[a])} crosses the cut"
        )
    return side1, side2
