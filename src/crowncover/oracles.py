"""Interchangeable maximum independent set oracles.

The cover pipeline only needs an algorithm that returns an independent set
of any induced subgraph it is handed; quality of the final cover degrades
gracefully with oracle quality. Three oracles are provided: an exact
branch-and-bound solver (capped), a weight/degree greedy heuristic, and a
bounded-swap local search suitable for unweighted geometric instances.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameter, InvalidSwapSize, TooLarge
from .graph import VertexSet, WeightedGraph, vertex_set

DEFAULT_BRUTE_CAP = 30
_CAP_ENV_VAR = "CROWNCOVER_BRUTE_CAP"

ORACLE_NAMES = ("exact", "greedy", "local-search")


def check_brute_cap(cap: int, source: str) -> int:
    """Return `cap` if it is a valid brute-force size cap: an integer >= 0."""
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
        raise InvalidParameter(f"{source} must be an integer >= 0, got {cap!r}")
    return cap


def check_eps(eps) -> None:
    """Raise unless `eps` is a valid requested approximation error: in [0, 1)."""
    if not (0 <= _as_fraction(eps, "eps") < 1):
        raise InvalidParameter(f"eps must be in [0, 1), got {eps}")


def check_swap_size(t: int) -> None:
    """Raise unless `t` is a valid local search swap size: at least 1."""
    if t < 1:
        raise InvalidSwapSize(f"swap size must be >= 1, got {t}")


def default_brute_cap() -> int:
    """Brute-force size cap; override with CROWNCOVER_BRUTE_CAP."""
    raw = os.environ.get(_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_BRUTE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidParameter(f"{_CAP_ENV_VAR} must be an integer, got {raw!r}")
    return check_brute_cap(cap, _CAP_ENV_VAR)


def exact_is(g: WeightedGraph, cap: int | None = None) -> VertexSet:
    """Maximum-weight independent set by branch and bound.

    Branches on a maximum-degree vertex of the remaining subgraph (ties to
    the smallest id): either exclude it, or include it and drop its closed
    neighborhood. Prunes when the remaining weight cannot beat the incumbent.
    Deterministic. Raises TooLarge above the cap, InvalidParameter if the
    cap breaks :func:`check_brute_cap`.
    """
    cap = default_brute_cap() if cap is None else check_brute_cap(cap, "cap")
    if g.n > cap:
        raise TooLarge(f"exact solve capped at {cap} vertices, instance has {g.n}")
    n = g.n
    weights = g.weights
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def mask_weight(mask: int) -> int:
        total = 0
        while mask:
            low = mask & -mask
            total += weights[low.bit_length() - 1]
            mask ^= low
        return total

    best_weight = -1
    best_mask = 0
    # Explicit stack of (available_mask, chosen_mask, chosen_weight).
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        avail, chosen, cw = stack.pop()
        if cw + mask_weight(avail) <= best_weight:
            continue
        if avail == 0:
            if cw > best_weight:
                best_weight = cw
                best_mask = chosen
            continue
        pick = -1
        pick_deg = -1
        m = avail
        while m:
            low = m & -m
            v = low.bit_length() - 1
            deg = (adj[v] & avail).bit_count()
            if deg > pick_deg:
                pick_deg = deg
                pick = v
            m ^= low
        bit = 1 << pick
        # LIFO stack: push the include branch first so exclusion is explored
        # first, matching the documented branch order.
        stack.append((avail & ~(bit | adj[pick]), chosen | bit, cw + weights[pick]))
        stack.append((avail & ~bit, chosen, cw))
    members = [v for v in range(n) if best_mask >> v & 1]
    return vertex_set(g, members)


def greedy_is(g: WeightedGraph) -> VertexSet:
    """Greedy independent set: repeatedly take the best weight/(degree+1) vertex.

    Degrees count only the not-yet-deleted subgraph; ties break to the
    smallest id. Runs on a lazy max-heap in O((n+m) log n) time: degrees
    only fall, so a vertex's score only rises, and each vertex whose degree
    fell gets a fresh entry; entries of deleted vertices are skipped when
    popped. The heap key is the exact integer w * D**2 // (d+1) with
    D = maxdeg + 1: two distinct scores with denominators at most D differ by
    at least 1/D**2, so the floor keeps their order and equal scores get
    equal keys. No float takes part.
    """
    return _greedy_is_ordered(g, tuple(range(g.n)))


def _greedy_is_ordered(g: WeightedGraph, tiebreak: tuple[int, ...]) -> VertexSet:
    # tiebreak[v] orders vertices with equal score; identity gives smallest-id.
    adj = g.adjacency
    weights = g.weights
    degree = [len(a) for a in adj]
    scale = (max(degree, default=0) + 1) ** 2
    # Entries are (-key, tiebreak, id); heapq is a min-heap. A vertex's newest
    # entry has a strictly smaller first field than its older ones, so it
    # pops first, and the vertex is gone by the time an older one pops.
    heap = [(-(weights[v] * scale // (d + 1)), tiebreak[v], v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    alive = [True] * g.n
    chosen: list[int] = []
    while heap:
        v = heapq.heappop(heap)[2]
        if not alive[v]:
            continue
        chosen.append(v)
        gone = [v, *(u for u in adj[v] if alive[u])]
        for u in gone:
            alive[u] = False
        touched = set()
        for u in gone:
            for x in adj[u]:
                if alive[x]:
                    degree[x] -= 1
                    touched.add(x)
        for x in touched:
            heapq.heappush(heap, (-(weights[x] * scale // (degree[x] + 1)), tiebreak[x], x))
    return vertex_set(g, chosen)


def local_search_is(g: WeightedGraph, t: int, seed: int = 0) -> VertexSet:
    """Independent set with no improving swap of at most `t` new vertices.

    Starting from a seeded greedy solution, repeatedly searches for an
    independent set X outside the current solution I with |X| <= t whose
    insertion (evicting the conflicting neighbors N(X) in I) strictly grows
    I, and applies the first such X in lexicographic order over sorted
    candidate tuples. Intended for unweighted instances; on non-uniform
    weights it warns and optimizes cardinality.

    Whether any improving swap is left is decided first, on connected swaps
    only (:func:`_has_connected_swap`): split X and its conflicts
    N(X) & I into connected pieces; |X| > |N(X) & I| sums over the pieces,
    so some piece alone improves. The lexicographic search runs only when
    that check finds a swap, and it still picks the swap. So the final
    pass, which proves that none is left, costs only the connected sets of
    at most t vertices with fewer than t conflicts, not every independent
    t-set; a pass that applies a swap costs what it did.
    """
    check_swap_size(t)
    if len(set(g.weights)) > 1:
        warnings.warn(
            "local_search_is optimizes cardinality; non-uniform weights are ignored",
            stacklevel=2,
        )
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    current = set(_greedy_is_ordered(g, tuple(perm)).members)
    adj = g.adjacency
    while _has_connected_swap(adj, current, t):
        swap = _find_improving_swap(g.n, adj, current, t)
        evicted = set()
        for v in swap:
            evicted |= adj[v] & current
        current -= evicted
        current |= set(swap)
    return vertex_set(g, current)


def _has_connected_swap(adj: tuple[frozenset[int], ...], current: set[int], t: int) -> bool:
    """True iff some improving swap of at most `t` vertices exists.

    Only connected swaps are grown, each from its smallest vertex s: a step
    adds one outside vertex larger than s that shares a conflict with the
    set and is independent of it. A set with >= t conflicts is dropped, as
    no superset of it can improve within t vertices. No record of sets
    already seen is kept: a set is reached once per connected order in
    which it can be grown from s, which at small t is a few times at most.
    """
    conflicts = {v: adj[v] & current for v in range(len(adj)) if v not in current}
    for s, cs in conflicts.items():
        if len(cs) >= t:
            continue
        if not cs:
            return True
        stack = [(frozenset((s,)), cs)]
        while stack:
            xs, cx = stack.pop()
            for u in frozenset().union(*(adj[c] for c in cx)):
                if u <= s or u in xs or not adj[u].isdisjoint(xs):
                    continue
                cy = cx | conflicts[u]
                if len(cy) >= t:
                    continue
                ys = xs | {u}
                if len(ys) > len(cy):
                    return True
                stack.append((ys, cy))
    return False


def _find_improving_swap(
    n: int, adj: tuple[frozenset[int], ...], current: set[int], t: int
) -> tuple[int, ...] | None:
    """First improving swap in lexicographic (prefix) order, or None.

    A partial tuple is abandoned once it stops being independent or once it
    already conflicts with >= t solution vertices (no extension of size <= t
    can then grow the solution).
    """
    outside = [v for v in range(n) if v not in current]

    def extend(x: list[int], conflicts: set[int], start: int) -> tuple[int, ...] | None:
        if len(x) > len(conflicts):
            return tuple(x)
        if len(x) == t:
            return None
        for idx in range(start, len(outside)):
            v = outside[idx]
            if any(u in adj[v] for u in x):
                continue
            new_conflicts = conflicts | (adj[v] & current)
            if len(new_conflicts) >= t:
                continue
            found = extend(x + [v], new_conflicts, idx + 1)
            if found is not None:
                return found
        return None

    return extend([], set(), 0)


def epsilon_to_swap_size(eps: float | str | Fraction, c: float | str | Fraction = 1) -> int:
    """Swap size for a target approximation error: ceil(c / eps^2).

    `eps` must lie in (0, 1]. Floats are converted through their shortest
    decimal representation so e.g. eps=0.1 gives exactly 100, not 101.
    """
    eps_f = _as_fraction(eps, "eps")
    c_f = _as_fraction(c, "c")
    if not (0 < eps_f <= 1):
        raise InvalidParameter(f"eps must be in (0, 1], got {eps}")
    if c_f <= 0:
        raise InvalidParameter(f"c must be positive, got {c}")
    return max(1, math.ceil(c_f / (eps_f * eps_f)))


def _as_fraction(x, name: str) -> Fraction:
    try:
        if isinstance(x, float):
            return Fraction(str(x))
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise InvalidParameter(f"{name} must be a number, got {x!r}")


@dataclass(frozen=True)
class ExactOracle:
    """Exact maximum-weight IS oracle (capped brute force)."""

    cap: int | None = None
    name: str = "exact"
    quality: str = "exact"

    def solve(self, g: WeightedGraph) -> VertexSet:
        return exact_is(g, cap=self.cap)


@dataclass(frozen=True)
class GreedyOracle:
    """Weight/degree greedy heuristic oracle; no approximation guarantee."""

    name: str = "greedy"
    quality: str = "heuristic"

    def solve(self, g: WeightedGraph) -> VertexSet:
        return greedy_is(g)


@dataclass(frozen=True)
class LocalSearchOracle:
    """Bounded-swap local search oracle for unweighted geometric instances."""

    t: int = 1
    seed: int = 0
    name: str = "local-search"

    @property
    def quality(self) -> str:
        return f"(1-eps)-for-pseudo-disks(t={self.t})"

    def solve(self, g: WeightedGraph) -> VertexSet:
        return local_search_is(g, self.t, seed=self.seed)


def make_oracle(
    name: str,
    eps: float | str | None = None,
    swap_size: int | None = None,
    seed: int = 0,
    cap: int | None = None,
):
    """Build an oracle by name: "exact" | "greedy" | "local-search".

    For local search the swap size comes from `swap_size` if given, else from
    `eps` via :func:`epsilon_to_swap_size`, else defaults to 1. Every `eps`,
    `swap_size` and `cap` given is checked, whichever oracle is built.
    """
    if eps is not None:
        check_eps(eps)
    if swap_size is not None:
        check_swap_size(swap_size)
    if cap is not None:
        check_brute_cap(cap, "cap")
    if name == "exact":
        return ExactOracle(cap=cap)
    if name == "greedy":
        return GreedyOracle()
    if name == "local-search":
        if swap_size is not None:
            t = swap_size
        elif eps is not None:
            t = epsilon_to_swap_size(eps)
        else:
            t = 1
        return LocalSearchOracle(t=t, seed=seed)
    raise InvalidParameter(f"unknown oracle {name!r}; expected one of {ORACLE_NAMES}")
