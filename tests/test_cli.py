"""Command line behavior: exit codes, output channels, document shapes."""

import json
import os
import subprocess
import sys

import pytest

from crowncover import parse_graph, parse_shapes
from crowncover.cli import main

STAR = "p graph 4 3\nv 1 1\nv 2 1\nv 3 1\nv 4 1\ne 1 2\ne 1 3\ne 1 4\n"
C5 = (
    "p graph 5 5\nv 1 1\nv 2 1\nv 3 1\nv 4 1\nv 5 1\n"
    "e 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_solve_star_exact(tmp_path, capsys):
    path = _write(tmp_path, "star.graph", STAR)
    assert main(["solve", path, "--oracle", "exact"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["cover"] == [1] and doc["cover_weight"] == 1
    assert "cover weight 1" in err  # diagnostics are on stderr only


def test_solve_reports_swap_size(tmp_path, capsys):
    path = _write(tmp_path, "c5.graph", C5)
    code = main(["solve", path, "--oracle", "local-search", "--eps", "0.5"])
    assert code == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["swap_size"] == 4
    assert "t=4" in err


def test_solve_malformed_file_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.graph", "p graph 2 2\nv 1 1\nv 2 1\ne 1 2\n")
    assert main(["solve", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "line 4" in err


def test_solve_missing_file_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.graph")]) == 2
    capsys.readouterr()


def test_solve_cap_exceeded_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "c5.graph", C5)
    assert main(["solve", path, "--oracle", "exact", "--cap", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "capped" in err


def test_solve_rejects_bad_eps(tmp_path, capsys):
    path = _write(tmp_path, "c5.graph", C5)
    assert main(["solve", path, "--eps", "1.0"]) == 2
    capsys.readouterr()


def test_solve_heuristic_without_eps_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "c5.graph", C5)
    assert main(["solve", path, "--oracle", "greedy"]) == 2
    out, err = capsys.readouterr()
    assert "eps" in err


def test_solve_output_file(tmp_path, capsys):
    path = _write(tmp_path, "c5.graph", C5)
    outp = tmp_path / "res.json"
    assert main(["solve", path, "-o", str(outp)]) == 0
    out, _ = capsys.readouterr()
    assert out == ""
    assert json.loads(outp.read_text())["cover_weight"] == 3


def test_gen_graph_deterministic(tmp_path, capsys):
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    assert main(["gen", "--kind", "gnp", "--n", "12", "--p", "0.3",
                 "--seed", "1", "-o", str(a)]) == 0
    assert main(["gen", "--kind", "gnp", "--n", "12", "--p", "0.3",
                 "--seed", "1", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()
    parse_graph(a.read_text())


def test_gen_shapes_and_empty(tmp_path, capsys):
    p = tmp_path / "d.shapes"
    assert main(["gen", "--kind", "disks", "--n", "15", "--seed", "7",
                 "-o", str(p)]) == 0
    assert len(parse_shapes(p.read_text())) == 15
    assert main(["gen", "--kind", "rects", "--n", "0", "-o", str(p)]) == 0
    assert len(parse_shapes(p.read_text())) == 0
    capsys.readouterr()


def test_gen_stdout_is_document_only(capsys):
    assert main(["gen", "--kind", "disks", "--n", "3", "--seed", "1"]) == 0
    out, err = capsys.readouterr()
    parse_shapes(out)
    assert "generated" in err


def test_kernelize_star(tmp_path, capsys):
    path = _write(tmp_path, "star.graph", STAR)
    assert main(["kernelize", path]) == 0
    out, _ = capsys.readouterr()
    assert "c zeros size=3 weight=3" in out
    assert "c ones size=1 weight=1" in out
    assert "p graph 0 0" in out
    # the emitted kernel is itself a parseable instance
    parse_graph(out)


def test_kernelize_c5_emits_reusable_kernel(tmp_path, capsys):
    path = _write(tmp_path, "c5.graph", C5)
    assert main(["kernelize", path]) == 0
    out, _ = capsys.readouterr()
    kg = parse_graph(out)
    assert kg.n == 5 and len(kg.edges) == 5


def test_verify_round_trip(tmp_path, capsys):
    inst = _write(tmp_path, "c5.graph", C5)
    resp = tmp_path / "res.json"
    assert main(["solve", inst, "-o", str(resp)]) == 0
    capsys.readouterr()
    assert main(["verify", inst, str(resp)]) == 0
    out, _ = capsys.readouterr()
    assert "OK" in out and "FAIL" not in out


def test_verify_tampered_result_exits_1(tmp_path, capsys):
    inst = _write(tmp_path, "c5.graph", C5)
    resp = tmp_path / "res.json"
    assert main(["solve", inst, "-o", str(resp)]) == 0
    capsys.readouterr()
    doc = json.loads(resp.read_text())
    tampered = dict(doc, cover=doc["cover"][:-1])  # drop a vertex
    resp.write_text(json.dumps(tampered))
    assert main(["verify", inst, str(resp)]) == 1
    out, _ = capsys.readouterr()
    assert "FAIL cover_is_vertex_cover" in out
    tampered = dict(doc, kernel=dict(doc["kernel"], forced_size=99, kernel_weight=7))
    resp.write_text(json.dumps(tampered))
    assert main(["verify", inst, str(resp)]) == 1
    out, _ = capsys.readouterr()
    assert "FAIL kernel_stats_match" in out
    assert "FAIL cover_is_vertex_cover" not in out


def test_verify_garbage_result_exits_2(tmp_path, capsys):
    inst = _write(tmp_path, "c5.graph", C5)
    assert main(["solve", inst, "-o", str(tmp_path / "good.json")]) == 0
    good = json.loads((tmp_path / "good.json").read_text(encoding="utf-8"))
    garbage = [
        "{broken",
        json.dumps(dict(good, kernel=[1, 2])),
        json.dumps(dict(good, kernel=dict(good["kernel"], free_size="3"))),
        json.dumps(dict(good, eps_requested="abc")),
        json.dumps(dict(good, swap_size=1.5)),
        json.dumps(dict(good, cover_weight="abc")),
        json.dumps(dict(good, cover_weight=True)),
        json.dumps(dict(good, oracle=5)),
        json.dumps(dict(good, kernel={k: v for k, v in good["kernel"].items()
                                      if k != "forced_size"})),
    ]
    for text in garbage:
        resp = _write(tmp_path, "res.json", text)
        assert main(["verify", inst, resp]) == 2, text
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err


def test_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("crowncover.cli.approx_vc", boom)
    inst = _write(tmp_path, "c5.graph", C5)
    assert main(["solve", inst]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "internal error: boom" in err and "Traceback" in err


def test_solve_shapes_instance(tmp_path, capsys):
    shapes = "p disks 3\nd 0 0 2 5\nd 3 0 1 1\nd 10 0 1 4\n"
    path = _write(tmp_path, "d.shapes", shapes)
    assert main(["solve", path]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    # only the tangent pair forms an edge; cheapest cover picks the light disk
    assert doc["cover"] == [2] and doc["cover_weight"] == 1
    assert "intersection graph: 3 vertices, 1 edges" in err


def test_bench_table(tmp_path, capsys):
    inst = _write(tmp_path, "c5.graph", C5)
    assert main(["bench", inst, "--oracles", "exact,greedy"]) == 0
    out, _ = capsys.readouterr()
    lines = out.strip().splitlines()
    assert lines[0].split()[:3] == ["instance", "n", "m"]
    assert len(lines) == 3
    assert "c5.graph" in lines[1] and "exact" in lines[1]
    assert "greedy" in lines[2]


def test_bench_deterministic(tmp_path, capsys):
    inst = _write(tmp_path, "c5.graph", C5)
    main(["bench", inst, "--oracles", "greedy"])
    first, _ = capsys.readouterr()
    main(["bench", inst, "--oracles", "greedy"])
    second, _ = capsys.readouterr()
    # identical modulo the timing column
    strip = lambda s: ["|".join(r.split()[:8] + r.split()[9:]) for r in s.splitlines()]
    assert strip(first) == strip(second)


@pytest.mark.parametrize("oracles", [",", "", " , "])
def test_bench_empty_oracle_list_exits_2(tmp_path, capsys, oracles):
    inst = _write(tmp_path, "c5.graph", C5)
    assert main(["bench", inst, "--oracles", oracles]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--oracles needs at least one of exact, greedy, local-search" in err


def test_unknown_command_rejected(capsys):
    # The instance kind comes from the file's header, and bench takes --oracles.
    for argv in (["dance"], ["solve", "x.graph", "--format", "graph"],
                 ["bench", "x.graph", "--oracle", "greedy"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


# Each bad value is rejected by the library check that owns the parameter.
@pytest.mark.parametrize("argv, message", [
    (["solve", "{c5}", "--oracle", "greedy", "--cap", "-1"], "cap must be an integer >= 0"),
    (["solve", "{c5}", "--swap-size", "0"], "swap size must be >= 1"),
    (["gen", "--n", "-1"], "n must be >= 0"),
    (["bench", "{c5}", "--eps", "-0.5", "--oracles", "greedy"], "eps must be in [0, 1)"),
])
def test_bad_parameter_exits_2(tmp_path, capsys, argv, message):
    path = _write(tmp_path, "c5.graph", C5)
    assert main([a.format(c5=path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_bench_eps_zero_follows_the_solve_rule(tmp_path, capsys):
    inst = _write(tmp_path, "c5.graph", C5)
    # only a missing --eps defaults the heuristic rows (to 0.5)
    for argv in (["bench", inst, "--oracles", "greedy", "--eps", "0"],
                 ["solve", inst, "--oracle", "greedy", "--eps", "0"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert "eps=0 requires the exact oracle" in err
    assert main(["bench", inst, "--oracles", "exact", "--eps", "0"]) == 0
    capsys.readouterr()


def test_bench_dir_skips_files_without_header(tmp_path, capsys):
    inst = _write(tmp_path, "c5.graph", C5)
    assert main(["solve", inst, "-o", str(tmp_path / "c5.json")]) == 0
    (tmp_path / "notes.bin").write_bytes(b"\xff\xfe p graph")
    _write(tmp_path, "star.graph", "c a comment line first\n" + STAR)
    assert main(["bench", str(tmp_path), "--oracles", "greedy"]) == 0
    out, err = capsys.readouterr()
    assert [r.split()[0] for r in out.splitlines()[1:]] == ["c5.graph", "star.graph"]
    assert err.count("skipping") == 2
    assert "c5.json: no `p` header" in err and "notes.bin: no `p` header" in err
    # a file named explicitly, or a headed file with a bad body, still exits 2
    assert main(["bench", str(tmp_path / "c5.json"), "--oracles", "greedy"]) == 2
    assert "expected a `p ...` header first" in capsys.readouterr().err
    _write(tmp_path, "bad.graph", "p graph 2 2\nv 1 1\nv 2 1\ne 1 2\n")
    assert main(["bench", str(tmp_path), "--oracles", "greedy"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "line 4" in err


def test_bench_match_ratio_uses_first_completed_row(tmp_path, capsys):
    inst = _write(tmp_path, "c5.graph", C5)
    # C5's LP bound is 5/2 and its greedy matching takes 4 vertices.
    assert main(["bench", inst, "--oracles", "exact,greedy", "--cap", "0"]) == 0
    out, _ = capsys.readouterr()
    exact_row, greedy_row = (r.split() for r in out.splitlines()[1:])
    assert exact_row[4:6] == ["exact", "cap-exceeded"]
    assert exact_row[-1] == greedy_row[-1] == "8/5"
    assert main(["bench", inst, "--oracles", "exact", "--cap", "0"]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[1].split()[-1] == "-"


# 0 is a valid cap: the 5-vertex kernel of C5 then exceeds it (exit 3).
@pytest.mark.parametrize("cap, code", [("40", 0), ("0", 3), ("-1", 2)])
def test_cap_flag_and_env_follow_one_rule(tmp_path, capsys, monkeypatch, cap, code):
    path = _write(tmp_path, "c5.graph", C5)
    monkeypatch.delenv("CROWNCOVER_BRUTE_CAP", raising=False)
    assert main(["solve", path, "--oracle", "exact", "--cap", cap]) == code
    monkeypatch.setenv("CROWNCOVER_BRUTE_CAP", cap)
    assert main(["solve", path, "--oracle", "exact"]) == code
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["solve", "{bad}"],
    ["kernelize", "{bad}"],
    ["verify", "{bad}", "{good}"],
    ["verify", "{good}", "{bad}"],
    ["bench", "{bad}", "--oracles", "greedy"],
])
def test_non_utf8_file_exits_2_naming_it(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfep graph 1 0\nv 1 1\n")
    good = _write(tmp_path, "c5.graph", C5)
    argv = [a.format(bad=bad, good=good) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{bad} is not UTF-8 text" in err
    assert "Traceback" not in err


def test_no_heavy_import_at_start_or_first_scan():
    # Each would add a large import to every command: scipy or networkx at
    # start-up, numpy.ma (pulled in by np.unique) on the first pair scan.
    code = (
        "import crowncover, sys\n"
        "for kind in ('disks', 'rects'):\n"
        "    crowncover.intersection_graph(crowncover.generate_instance(kind, 50))\n"
        "print(sorted({'scipy', 'networkx', 'numpy.ma'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
