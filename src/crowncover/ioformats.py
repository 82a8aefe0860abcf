"""Instance and result file formats.

Graph files are DIMACS-like: `c` comments, one `p graph <n> <m>` header,
`v <id> <weight>` lines with 1-based ids, `e <u> <v>` lines. Shapes files
use `p disks <n>` / `p rects <n>` headers with `d cx cy r [w]` or
`r x1 y1 x2 y2 [w]` lines; coordinates are decimal strings (or `p/q`
fractions) parsed exactly. Results are JSON documents with sorted keys and
exact `p/q` fraction fields. All parse errors carry 1-based line numbers.
Canonical serialization is UTF-8 with LF endings; parse(write(x)) == x and
write(parse(t)) is byte-stable on canonical t.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from fractions import Fraction

from .approx import ApproxResult, KernelStats
from .errors import (
    DuplicateVertexLine,
    EdgeCountMismatch,
    InvalidEdge,
    InvalidShape,
    InvalidWeight,
    MissingHeader,
    ParseError,
)
from .geometry import Disk, Rect, ShapeSet
from .graph import VertexSet, WeightedGraph, build_graph


def _int(token: str, ln: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", ln) from None


def _frac(token: str, ln: int, what: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what} must be a decimal or fraction, got {token!r}", ln) from None


def _data_lines(text: str):
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield ln, line.split()


def _last_line(text: str) -> int:
    return max(1, len(text.splitlines()))


def parse_graph(text: str) -> WeightedGraph:
    """Parse a graph file; ids come out shifted to 0-based."""
    n = m = None
    weights: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for ln, parts in _data_lines(text):
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise ParseError("second header line", ln)
            if len(parts) != 4 or parts[1] != "graph":
                raise MissingHeader("expected `p graph <n> <m>`", ln)
            n = _int(parts[2], ln, "vertex count")
            m = _int(parts[3], ln, "edge count")
            if n < 0 or m < 0:
                raise ParseError(f"counts must be non-negative, got n={n} m={m}", ln)
        elif tag == "v":
            if n is None:
                raise MissingHeader("vertex line before `p graph` header", ln)
            if len(parts) != 3:
                raise ParseError("expected `v <id> <weight>`", ln)
            vid = _int(parts[1], ln, "vertex id")
            if not 1 <= vid <= n:
                raise ParseError(f"vertex id {vid} outside 1..{n}", ln)
            if vid in weights:
                raise DuplicateVertexLine(f"vertex {vid} defined twice", ln)
            w = _int(parts[2], ln, "weight")
            if w <= 0:
                raise InvalidWeight(f"line {ln}: weight of vertex {vid} must be positive, got {w}")
            weights[vid] = w
        elif tag == "e":
            if n is None:
                raise MissingHeader("edge line before `p graph` header", ln)
            if len(parts) != 3:
                raise ParseError("expected `e <u> <v>`", ln)
            u = _int(parts[1], ln, "endpoint")
            v = _int(parts[2], ln, "endpoint")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InvalidEdge(f"line {ln}: endpoints must be in 1..{n}, got {u} {v}")
            if u == v:
                raise InvalidEdge(f"line {ln}: self-loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown line tag {tag!r}", ln)
    if n is None:
        raise MissingHeader("no `p graph <n> <m>` header", 1)
    if len(weights) != n:
        missing = next(v for v in range(1, n + 1) if v not in weights)
        raise InvalidWeight(f"line {_last_line(text)}: no weight line for vertex {missing}")
    if len(edges) != m:
        raise EdgeCountMismatch(
            f"header declares {m} edges, found {len(edges)}", _last_line(text)
        )
    return build_graph(n, tuple(weights[v] for v in range(1, n + 1)), edges)


def write_graph(g: WeightedGraph) -> str:
    out = [f"p graph {g.n} {len(g.edges)}"]
    for v in range(g.n):
        out.append(f"v {v + 1} {g.weights[v]}")
    for u, v in g.edges:
        out.append(f"e {u + 1} {v + 1}")
    return "\n".join(out) + "\n"


def _decimal_str(q: Fraction) -> str:
    """Shortest exact decimal, falling back to p/q for other denominators."""
    num, den = q.numerator, q.denominator
    d = den
    a = 0
    while d % 2 == 0:
        d //= 2
        a += 1
    b = 0
    while d % 5 == 0:
        d //= 5
        b += 1
    if d != 1:
        return f"{num}/{den}"
    k = max(a, b)
    if k == 0:
        return str(num)
    scaled = abs(num) * 10**k // den
    sign = "-" if num < 0 else ""
    s = str(scaled).rjust(k + 1, "0")
    whole, frac = s[:-k], s[-k:].rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def parse_shapes(text: str) -> ShapeSet:
    kind = None
    n = None
    shapes: list = []
    weights: list[int] = []
    for ln, parts in _data_lines(text):
        tag = parts[0]
        if tag == "p":
            if kind is not None:
                raise ParseError("second header line", ln)
            if len(parts) != 3 or parts[1] not in ("disks", "rects"):
                raise MissingHeader("expected `p disks <n>` or `p rects <n>`", ln)
            kind = parts[1]
            n = _int(parts[2], ln, "shape count")
            if n < 0:
                raise ParseError(f"shape count must be non-negative, got {n}", ln)
        elif tag == "d":
            if kind is None:
                raise MissingHeader("shape line before header", ln)
            if kind != "disks":
                raise InvalidShape(f"line {ln}: disk line in a {kind} file")
            if len(parts) not in (4, 5):
                raise ParseError("expected `d <cx> <cy> <r> [w]`", ln)
            cx = _frac(parts[1], ln, "cx")
            cy = _frac(parts[2], ln, "cy")
            r = _frac(parts[3], ln, "r")
            if r <= 0:
                raise InvalidShape(f"line {ln}: radius must be positive, got {parts[3]}")
            shapes.append(Disk(cx, cy, r))
            weights.append(_parse_weight(parts, 4, ln))
        elif tag == "r":
            if kind is None:
                raise MissingHeader("shape line before header", ln)
            if kind != "rects":
                raise InvalidShape(f"line {ln}: rect line in a {kind} file")
            if len(parts) not in (5, 6):
                raise ParseError("expected `r <x1> <y1> <x2> <y2> [w]`", ln)
            x1 = _frac(parts[1], ln, "x1")
            y1 = _frac(parts[2], ln, "y1")
            x2 = _frac(parts[3], ln, "x2")
            y2 = _frac(parts[4], ln, "y2")
            if x1 >= x2 or y1 >= y2:
                raise InvalidShape(f"line {ln}: corners must satisfy x1 < x2 and y1 < y2")
            shapes.append(Rect(x1, y1, x2, y2))
            weights.append(_parse_weight(parts, 5, ln))
        else:
            raise ParseError(f"unknown line tag {tag!r}", ln)
    if kind is None:
        raise MissingHeader("no `p disks/rects <n>` header", 1)
    if len(shapes) != n:
        raise ParseError(
            f"header declares {n} shapes, found {len(shapes)}", _last_line(text)
        )
    return ShapeSet(kind=kind, shapes=tuple(shapes), weights=tuple(weights))


def _parse_weight(parts: list[str], idx: int, ln: int) -> int:
    if len(parts) <= idx:
        return 1
    w = _int(parts[idx], ln, "weight")
    if w <= 0:
        raise InvalidWeight(f"line {ln}: shape weight must be positive, got {w}")
    return w


def write_shapes(s: ShapeSet) -> str:
    out = [f"p {s.kind} {len(s.shapes)}"]
    if s.kind == "disks":
        for d, w in zip(s.shapes, s.weights):
            out.append(
                f"d {_decimal_str(d.cx)} {_decimal_str(d.cy)} {_decimal_str(d.r)} {w}"
            )
    else:
        for r, w in zip(s.shapes, s.weights):
            out.append(
                f"r {_decimal_str(r.x1)} {_decimal_str(r.y1)}"
                f" {_decimal_str(r.x2)} {_decimal_str(r.y2)} {w}"
            )
    return "\n".join(out) + "\n"


def _is_header(parts: list[str]) -> bool:
    return parts[0] == "p" and len(parts) >= 2


def has_header(text: str) -> bool:
    """True if the first data line of `text` is a `p <kind> ...` header."""
    return next((_is_header(parts) for _, parts in _data_lines(text)), False)


def parse_instance(text: str):
    """Dispatch on the header: returns a WeightedGraph or a ShapeSet."""
    for ln, parts in _data_lines(text):
        if not _is_header(parts):
            raise MissingHeader("expected a `p ...` header first", ln)
        if parts[1] == "graph":
            return parse_graph(text)
        if parts[1] in ("disks", "rects"):
            return parse_shapes(text)
        raise MissingHeader(f"unknown instance kind {parts[1]!r}", ln)
    raise MissingHeader("empty instance file", 1)


_KERNEL_KEYS = tuple(f.name for f in fields(KernelStats))


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def write_result(res: ApproxResult) -> str:
    """JSON result document: sorted keys, exact fraction strings.

    The ratio field is omitted when the LP bound is 0 (edgeless instance).
    """
    doc = {
        "cover": [v + 1 for v in res.cover.members],
        "cover_weight": res.cover_weight,
        "eps_requested": res.eps_requested,
        "kernel": asdict(res.kernel_stats),
        "lp_bound": _frac_str(res.lp_lower_bound),
        "oracle": res.oracle_name,
    }
    if res.certified_ratio_bound is not None:
        doc["ratio_bound"] = _frac_str(res.certified_ratio_bound)
    if res.swap_size is not None:
        doc["swap_size"] = res.swap_size
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_result(text: str) -> dict:
    """Parse a result document back into a plain dict (fractions restored)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid result document: {exc.msg}", exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("result document must be a JSON object", 1)
    for key in ("cover", "cover_weight", "kernel", "lp_bound", "oracle"):
        if key not in doc:
            raise ParseError(f"result document missing key {key!r}", 1)
    try:
        doc["lp_bound"] = Fraction(doc["lp_bound"])
        if "ratio_bound" in doc:
            doc["ratio_bound"] = Fraction(doc["ratio_bound"])
    except (ValueError, ZeroDivisionError, TypeError):
        raise ParseError("fraction fields must be `p/q` strings", 1) from None
    if not isinstance(doc["cover"], list) or not all(_is_int(v) for v in doc["cover"]):
        raise ParseError("cover must be a list of integer ids", 1)
    if not _is_int(doc["cover_weight"]):
        raise ParseError("cover_weight must be an integer", 1)
    if not isinstance(doc["oracle"], str):
        raise ParseError("oracle must be a string", 1)
    kernel = doc["kernel"]
    if not isinstance(kernel, dict) or not all(_is_int(v) for v in kernel.values()):
        raise ParseError("kernel must be an object with integer fields", 1)
    for key in _KERNEL_KEYS:
        if key not in kernel:
            raise ParseError(f"kernel missing key {key!r}", 1)
    eps = doc.get("eps_requested", 0.0)
    if not isinstance(eps, (int, float)) or isinstance(eps, bool):
        raise ParseError("eps_requested must be a number", 1)
    if not (doc.get("swap_size") is None or _is_int(doc["swap_size"])):
        raise ParseError("swap_size must be an integer or null", 1)
    return doc


def result_from_doc(doc: dict, g: WeightedGraph) -> ApproxResult:
    """Rebuild an ApproxResult for verification against graph `g`.

    Deliberately lenient: out-of-range or duplicated cover ids survive into
    the VertexSet so the verifier can flag them instead of crashing here.
    """
    members = tuple(sorted(v - 1 for v in doc["cover"]))
    weight = sum(g.weights[v] for v in members if 0 <= v < g.n)
    stats = KernelStats(**{key: doc["kernel"][key] for key in _KERNEL_KEYS})
    return ApproxResult(
        cover=VertexSet(members=members, weight=weight),
        cover_weight=doc["cover_weight"],
        lp_lower_bound=doc["lp_bound"],
        kernel_stats=stats,
        oracle_name=doc["oracle"],
        eps_requested=float(doc.get("eps_requested", 0.0)),
        certified_ratio_bound=doc.get("ratio_bound"),
        swap_size=doc.get("swap_size"),
    )
