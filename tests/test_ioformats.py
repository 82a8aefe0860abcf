"""File formats: graph, shapes, result documents."""

import json
from fractions import Fraction

import pytest

from crowncover import (
    DuplicateVertexLine,
    EdgeCountMismatch,
    ExactOracle,
    InvalidEdge,
    InvalidShape,
    InvalidWeight,
    MissingHeader,
    ParseError,
    approx_vc,
    build_graph,
    build_shape_set,
    disk,
    generate_instance,
    parse_graph,
    parse_instance,
    parse_result,
    parse_shapes,
    rect,
    write_graph,
    write_result,
    write_shapes,
)
from crowncover.ioformats import _decimal_str, result_from_doc


def test_parse_minimal_graph():
    g = parse_graph("p graph 2 1\nv 1 1\nv 2 1\ne 1 2\n")
    assert g.n == 2 and g.edges == ((0, 1),) and g.weights == (1, 1)


def test_parse_graph_with_comments_and_blanks():
    text = "c generated\n\np graph 3 2\nc weights\nv 1 5\nv 2 6\nv 3 7\ne 1 2\ne 2 3\n"
    g = parse_graph(text)
    assert g.weights == (5, 6, 7)
    assert g.edges == ((0, 1), (1, 2))


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(MissingHeader, match="line 1"):
        parse_graph("v 1 1\n")
    with pytest.raises(DuplicateVertexLine, match="line 3"):
        parse_graph("p graph 2 0\nv 1 1\nv 1 2\n")
    with pytest.raises(EdgeCountMismatch, match="line 4"):
        parse_graph("p graph 2 2\nv 1 1\nv 2 1\ne 1 2\n")
    with pytest.raises(InvalidWeight, match="line 2"):
        parse_graph("p graph 1 0\nv 1 0\n")
    with pytest.raises(InvalidEdge, match="line 4"):
        parse_graph("p graph 2 1\nv 1 1\nv 2 1\ne 1 3\n")
    with pytest.raises(InvalidEdge, match="line 4"):
        parse_graph("p graph 2 1\nv 1 1\nv 2 1\ne 2 2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("q graph 1 0\n")
    with pytest.raises(MissingHeader, match="line 1"):
        parse_graph("")


def test_parse_graph_missing_vertex_line():
    with pytest.raises(InvalidWeight, match="vertex 2"):
        parse_graph("p graph 2 0\nv 1 1\n")


def test_graph_round_trip():
    g = build_graph(4, (2, 9, 1, 4), [(0, 3), (1, 2), (0, 1)])
    text = write_graph(g)
    assert parse_graph(text) == g
    assert write_graph(parse_graph(text)) == text


def test_parse_minimal_shapes():
    s = parse_shapes("p disks 1\nd 0 0 1\n")
    assert s.kind == "disks" and len(s) == 1 and s.weights == (1,)
    assert s.shapes[0].r == 1


def test_parse_shapes_decimal_and_fraction_coordinates():
    s = parse_shapes("p disks 2\nd 0.5 -1.25 2 3\nd 1/3 0 2/7\n")
    assert s.shapes[0].cx == Fraction(1, 2)
    assert s.shapes[0].cy == Fraction(-5, 4)
    assert s.weights == (3, 1)
    assert s.shapes[1].r == Fraction(2, 7)


def test_parse_shapes_errors():
    with pytest.raises(InvalidShape, match="line 2"):
        parse_shapes("p disks 1\nd 0 0 -1\n")
    with pytest.raises(InvalidShape, match="line 2"):
        parse_shapes("p rects 1\nr 2 0 1 3\n")
    with pytest.raises(InvalidShape, match="line 2"):
        parse_shapes("p disks 1\nr 0 0 1 1\n")
    with pytest.raises(MissingHeader):
        parse_shapes("d 0 0 1\n")
    with pytest.raises(ParseError, match="declares 2"):
        parse_shapes("p disks 2\nd 0 0 1\n")
    with pytest.raises(InvalidWeight, match="line 2"):
        parse_shapes("p disks 1\nd 0 0 1 0\n")


def test_shapes_round_trip_disks_and_rects():
    for s in (
        build_shape_set("disks", [disk("0.5", "2.25", "1.75"), disk(3, 4, 5)], [2, 1]),
        build_shape_set("rects", [rect(0, 0, 1, 1), rect("0.1", "0.2", "0.3", "0.4")]),
        generate_instance("disks", 30, seed=5),
        generate_instance("rects", 30, seed=6),
    ):
        text = write_shapes(s)
        assert parse_shapes(text) == s
        assert write_shapes(parse_shapes(text)) == text


def test_shapes_round_trip_odd_denominators():
    s = build_shape_set("disks", [disk(Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11))])
    text = write_shapes(s)
    assert "1/3" in text and "-2/7" in text and "5/11" in text
    assert parse_shapes(text) == s


def test_parse_instance_dispatch():
    g = parse_instance("p graph 1 0\nv 1 3\n")
    assert g.n == 1
    s = parse_instance("p rects 1\nr 0 0 1 1\n")
    assert s.kind == "rects"
    with pytest.raises(MissingHeader):
        parse_instance("p mesh 1\n")
    with pytest.raises(MissingHeader):
        parse_instance("c only a comment\n")


def test_decimal_str_forms():
    assert _decimal_str(Fraction(5)) == "5"
    assert _decimal_str(Fraction(-3)) == "-3"
    assert _decimal_str(Fraction(1, 2)) == "0.5"
    assert _decimal_str(Fraction(-1, 8)) == "-0.125"
    assert _decimal_str(Fraction(247, 100)) == "2.47"
    assert _decimal_str(Fraction(1, 3)) == "1/3"
    assert _decimal_str(Fraction(10, 4)) == "2.5"


def test_write_result_fields_and_order():
    g = build_graph(5, (1,) * 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    res = approx_vc(g, ExactOracle(), 0.0)
    text = write_result(res)
    doc = json.loads(text)
    assert doc["cover_weight"] == 3
    assert len(doc["cover"]) == 3 and doc["cover"] == sorted(doc["cover"])
    assert min(doc["cover"]) >= 1  # ids are 1-based
    assert doc["lp_bound"] == "5/2"
    assert doc["ratio_bound"] == "6/5"
    assert doc["oracle"] == "exact"
    # canonical: keys sorted, stable across dumps
    assert list(doc.keys()) == sorted(doc.keys())
    assert write_result(res) == text


def test_write_result_star():
    g = build_graph(4, (1, 1, 1, 1), [(0, 1), (0, 2), (0, 3)])
    doc = json.loads(write_result(approx_vc(g, ExactOracle(), 0.0)))
    assert doc["cover"] == [1]
    assert doc["cover_weight"] == 1
    assert doc["lp_bound"] == "1/1"


def test_write_result_edgeless_omits_ratio():
    g = build_graph(2, (1, 1), ())
    doc = json.loads(write_result(approx_vc(g, ExactOracle(), 0.0)))
    assert doc["cover"] == [] and doc["cover_weight"] == 0
    assert doc["lp_bound"] == "0/1"
    assert "ratio_bound" not in doc


def test_result_document_round_trip():
    g = build_graph(5, (1,) * 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    res = approx_vc(g, ExactOracle(), 0.0)
    doc = parse_result(write_result(res))
    rebuilt = result_from_doc(doc, g)
    assert rebuilt.cover == res.cover
    assert rebuilt.cover_weight == res.cover_weight
    assert rebuilt.lp_lower_bound == res.lp_lower_bound
    assert rebuilt.certified_ratio_bound == res.certified_ratio_bound


def test_parse_result_errors():
    with pytest.raises(ParseError):
        parse_result("not json")
    with pytest.raises(ParseError):
        parse_result("[1, 2]")
    with pytest.raises(ParseError, match="cover"):
        parse_result("{}")
    good = {
        "cover": [1],
        "cover_weight": 1,
        "kernel": dict.fromkeys(
            ("free_size", "free_weight", "kernel_size", "kernel_weight",
             "forced_size", "forced_weight"), 0),
        "lp_bound": "1/1",
        "oracle": "exact",
    }
    parse_result(json.dumps(good))
    bad = dict(good, kernel={})
    with pytest.raises(ParseError, match="kernel missing key 'free_size'"):
        parse_result(json.dumps(bad))
    bad = dict(good, cover=[1.5])
    with pytest.raises(ParseError):
        parse_result(json.dumps(bad))
    bad = dict(good, lp_bound="x")
    with pytest.raises(ParseError):
        parse_result(json.dumps(bad))
