"""Intersection graphs of disks and axis-aligned rectangles.

Coordinates are exact rationals. Edge tests compare the squared form
(disks) or interval endpoints (rects) with no floating point anywhere, so
tangency is bit-stable: touching shapes intersect (closed model). The pair
tests run on coordinates scaled to a common integer grid: int64 arrays when
the scaled magnitudes are small enough, exact Python ints otherwise. The
pairs come from the grid-bucket scan in `_kernels`, which tests only shapes
in the same or neighbouring cells (plus a short list of oversized shapes
against all), in O(n log n + candidates) time: O(n + m) at bounded density,
O(n^2) only when the shapes really crowd a few cells.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ._kernels import disk_pairs, rect_pairs
from .errors import InvalidParameter, InvalidSet, InvalidShape, InvalidWeight
from .graph import _trusted_graph

# Scaled coordinates above this magnitude could overflow int64 in the
# squared-distance test (8 * M^2 must stay below 2^63).
_INT_GUARD = 10**9


def _coord(value) -> Fraction:
    if isinstance(value, float):
        return Fraction(str(value))
    try:
        return Fraction(value)
    except (ValueError, TypeError) as exc:
        raise InvalidShape(f"bad coordinate {value!r}") from exc


@dataclass(frozen=True)
class Disk:
    cx: Fraction
    cy: Fraction
    r: Fraction


@dataclass(frozen=True)
class Rect:
    x1: Fraction
    y1: Fraction
    x2: Fraction
    y2: Fraction


def disk(cx, cy, r) -> Disk:
    d = Disk(_coord(cx), _coord(cy), _coord(r))
    if d.r <= 0:
        raise InvalidShape(f"disk radius must be positive, got {d.r}")
    return d


def rect(x1, y1, x2, y2) -> Rect:
    rc = Rect(_coord(x1), _coord(y1), _coord(x2), _coord(y2))
    if rc.x1 >= rc.x2:
        raise InvalidShape(f"rect needs x1 < x2, got {rc.x1} >= {rc.x2}")
    if rc.y1 >= rc.y2:
        raise InvalidShape(f"rect needs y1 < y2, got {rc.y1} >= {rc.y2}")
    return rc


@dataclass(frozen=True)
class ShapeSet:
    """Homogeneous collection of shapes with positive integer weights."""

    kind: str  # "disks" or "rects"
    shapes: tuple
    weights: tuple

    def __len__(self) -> int:
        return len(self.shapes)


_KIND_TYPES = {"disks": Disk, "rects": Rect}


def _canonical_kind(kind: str) -> str:
    k = {"disk": "disks", "rect": "rects"}.get(kind, kind)
    if k not in _KIND_TYPES:
        raise InvalidParameter(f"unknown shape kind {kind!r}")
    return k


def build_shape_set(kind: str, shapes: Iterable, weights=None) -> ShapeSet:
    kind = _canonical_kind(kind)
    shapes = tuple(shapes)
    want = _KIND_TYPES[kind]
    for i, s in enumerate(shapes):
        if not isinstance(s, want):
            raise InvalidShape(f"shape {i} is {type(s).__name__}, set kind is {kind}")
    if weights is None:
        weights = (1,) * len(shapes)
    else:
        weights = tuple(weights)
        if len(weights) != len(shapes):
            raise InvalidWeight(
                f"expected {len(shapes)} weights, got {len(weights)}"
            )
        for i, w in enumerate(weights):
            if not isinstance(w, int) or isinstance(w, bool) or w <= 0:
                raise InvalidWeight(f"weight of shape {i} must be a positive integer, got {w!r}")
    return ShapeSet(kind=kind, shapes=shapes, weights=weights)


def disks_intersect(a: Disk, b: Disk) -> bool:
    dx = a.cx - b.cx
    dy = a.cy - b.cy
    rr = a.r + b.r
    return dx * dx + dy * dy <= rr * rr


def rects_intersect(a: Rect, b: Rect) -> bool:
    return a.x1 <= b.x2 and b.x1 <= a.x2 and a.y1 <= b.y2 and b.y1 <= a.y2


def _scaled_columns(columns: Sequence[Sequence[Fraction]]) -> list[np.ndarray]:
    """Scale rational columns to a common integer grid.

    The columns are int64 when every scaled magnitude is within _INT_GUARD,
    otherwise numpy object arrays of exact Python ints.
    """
    denom = math.lcm(*{q.denominator for col in columns for q in col})
    scaled = [[q.numerator * (denom // q.denominator) for q in col] for col in columns]
    biggest = max((abs(x) for col in scaled for x in col), default=0)
    dtype = np.int64 if biggest <= _INT_GUARD else object
    return [np.asarray(col, dtype=dtype) for col in scaled]


def intersection_graph(s: ShapeSet):
    """Vertex per shape, edge iff the shapes intersect (closed test).

    Returns (graph, shape_map) where shape_map[vertex] is the index of the
    shape the vertex represents.
    """
    if s.kind == "disks":
        pairs, fields = disk_pairs, ("cx", "cy", "r")
    else:
        pairs, fields = rect_pairs, ("x1", "y1", "x2", "y2")
    us, vs = pairs(*_scaled_columns([[getattr(sh, f) for sh in s.shapes] for f in fields]))
    n = len(s.shapes)
    # The scan's pairs are unique, in range and row-major already.
    return _trusted_graph(n, s.weights, tuple(zip(us.tolist(), vs.tolist()))), tuple(range(n))


def generate_instance(
    kind: str,
    n: int,
    seed: int = 0,
    region: int = 100,
    size_range: tuple[int, int] = (1, 5),
    weight_range: tuple[int, int] = (1, 1),
) -> ShapeSet:
    """Random shapes on a 0.01 grid inside [0, region]^2, deterministic per seed.

    Disk radii and rect extents are drawn from size_range; weights from
    weight_range.
    """
    kind = _canonical_kind(kind)
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    if region <= 0:
        raise InvalidParameter(f"region must be positive, got {region}")
    lo, hi = size_range
    if not (0 < lo <= hi):
        raise InvalidParameter(f"bad size_range {size_range}")
    wlo, whi = weight_range
    if not (0 < wlo <= whi):
        raise InvalidParameter(f"bad weight_range {weight_range}")
    rng = random.Random(seed)

    def grid(limit_units: int) -> Fraction:
        # limit_units is in hundredths; keeps every coordinate on a 1/100 grid
        return Fraction(rng.randrange(limit_units + 1), 100)

    shapes = []
    for _ in range(n):
        if kind == "disks":
            r = Fraction(rng.randrange(lo * 100, hi * 100 + 1), 100)
            shapes.append(Disk(grid(region * 100), grid(region * 100), r))
        else:
            w = Fraction(rng.randrange(lo * 100, hi * 100 + 1), 100)
            h = Fraction(rng.randrange(lo * 100, hi * 100 + 1), 100)
            x1 = grid(region * 100)
            y1 = grid(region * 100)
            shapes.append(Rect(x1, y1, x1 + w, y1 + h))
    weights = tuple(rng.randint(wlo, whi) for _ in range(n))
    return ShapeSet(kind=kind, shapes=tuple(shapes), weights=weights)


def restrict_shapes(s: ShapeSet, subset, shape_map) -> ShapeSet:
    """Sub-ShapeSet for a vertex subset of the intersection graph.

    Vertices are taken in sorted order so the restricted set's intersection
    graph coincides with induced_subgraph on the same subset.
    """
    members = sorted(set(int(v) for v in subset))
    n = len(shape_map)
    for v in members:
        if not (0 <= v < n):
            raise InvalidSet(f"vertex {v} out of range for {n} shapes")
    picked = [shape_map[v] for v in members]
    return ShapeSet(
        kind=s.kind,
        shapes=tuple(s.shapes[i] for i in picked),
        weights=tuple(s.weights[i] for i in picked),
    )
