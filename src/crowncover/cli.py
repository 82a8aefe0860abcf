"""Command line interface.

Commands: solve, kernelize, gen, verify, bench. Each subcommand reads its
argparse namespace directly; every parameter is validated once, by the
library function that uses it. An instance file's kind (graph, disks or
rects) comes from its `p` header. stdout carries only the result document;
everything diagnostic goes to stderr. Exit codes: 0 ok, 1 failed
verification, 2 malformed input or bad parameters, 3 exact-oracle cap
exceeded, 4 internal error (message and traceback on stderr).
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

from .approx import approx_vc, matching_2approx_vc, verify_result
from .errors import CrownCoverError, InvalidParameter, ParseError, TooLarge
from .geometry import ShapeSet, generate_instance, intersection_graph
from .graph import WeightedGraph, random_gnp_graph
from .ioformats import (
    has_header,
    parse_instance,
    parse_result,
    result_from_doc,
    write_graph,
    write_result,
    write_shapes,
)
from .kernelize import kernelize
from .oracles import DEFAULT_BRUTE_CAP, ORACLE_NAMES, make_oracle


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_graph(path: str) -> tuple[WeightedGraph, bool]:
    """Read an instance file; True if it held shapes, now their intersection graph."""
    return _graph_of(_read_text(path))


def _graph_of(text: str) -> tuple[WeightedGraph, bool]:
    inst = parse_instance(text)
    if isinstance(inst, ShapeSet):
        return intersection_graph(inst)[0], True
    return inst, False


def _timed(fn, *args):
    """Run fn and return (result, elapsed_seconds)."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _oracle(name: str, args: argparse.Namespace):
    return make_oracle(
        name, eps=args.eps or None, swap_size=args.swap_size,
        seed=args.seed, cap=args.cap,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    oracle = _oracle(args.oracle, args)
    g, from_shapes = _load_graph(args.input)
    if from_shapes:
        _diag(f"intersection graph: {g.n} vertices, {len(g.edges)} edges")
    eps = 0.0 if args.eps is None else args.eps
    res, seconds = _timed(approx_vc, g, oracle, eps)
    _emit(write_result(res), args.output)
    ks = res.kernel_stats
    _diag(
        f"kernel: {ks.kernel_size}/{g.n} vertices, forced {ks.forced_size},"
        f" free {ks.free_size}"
    )
    if res.swap_size is not None:
        _diag(f"local search swap size t={res.swap_size}")
    _diag(f"cover weight {res.cover_weight}, LP bound {res.lp_lower_bound}")
    _diag(f"solved in {seconds:.3f}s")
    return 0


def cmd_kernelize(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args.input)
    kern = kernelize(g)
    zeros = kern.free
    ones = kern.forced
    kg = kern.kernel_graph
    lines = [
        f"c zeros size={len(zeros)} weight={zeros.weight}",
        f"c halves size={kg.n} weight={kg.total_weight}",
        f"c ones size={len(ones)} weight={ones.weight}",
    ]
    if kern.back_map:
        originals = " ".join(str(v + 1) for v in kern.back_map)
        lines.append(f"c original-ids {originals}")
    doc = "\n".join(lines) + "\n" + write_graph(kg)
    _emit(doc, args.output)
    _diag(
        f"kernel {kg.n} of {g.n} vertices; forced weight {ones.weight},"
        f" dropped weight {zeros.weight}"
    )
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    weight_range = (args.weight_min, args.weight_max)
    if args.kind == "gnp":
        g = random_gnp_graph(args.n, args.p, weight_range=weight_range, seed=args.seed)
        _emit(write_graph(g), args.output)
        _diag(f"generated gnp graph: n={g.n}, m={len(g.edges)}, seed={args.seed}")
        return 0
    shapes = generate_instance(
        args.kind,
        args.n,
        seed=args.seed,
        region=args.region,
        size_range=(args.size_min, args.size_max),
        weight_range=weight_range,
    )
    _emit(write_shapes(shapes), args.output)
    _diag(f"generated {len(shapes)} {shapes.kind}, seed={args.seed}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args.input)
    doc = parse_result(_read_text(args.result))
    res = result_from_doc(doc, g)
    report = verify_result(g, res, cap=args.cap)
    out = []
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        out.append(f"{status} {check.name}: {check.detail}")
    if report.exact_ratio is not None:
        out.append(f"INFO exact_ratio: {report.exact_ratio}")
    out.append("OK" if report.passed else "FAILED")
    _emit("\n".join(out) + "\n", args.output)
    return 0 if report.passed else 1


def _bench_graphs(inputs: list[str]):
    """Yield (path, graph) for each named file, and for each file in a named
    directory that starts with a `p` header; other files there are skipped."""
    for item in inputs:
        p = Path(item)
        if not p.is_dir():
            yield p, _load_graph(item)[0]
            continue
        for q in sorted(q for q in p.iterdir() if q.is_file()):
            try:
                text = q.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                text = ""
            if not has_header(text):
                _diag(f"skipping {q}: no `p` header")
                continue
            yield q, _graph_of(text)[0]


def cmd_bench(args: argparse.Namespace) -> int:
    names = [s.strip() for s in args.oracles.split(",") if s.strip()]
    if not names:
        raise InvalidParameter(f"--oracles needs at least one of {', '.join(ORACLE_NAMES)}")
    oracles = [_oracle(name, args) for name in names]
    # heuristic rows need a declared eps; 0.5 only if none was given
    heuristic_eps = 0.5 if args.eps is None else args.eps
    rows = []
    header = (
        "instance", "n", "m", "kernel_frac", "oracle", "cover_w",
        "lp_bound", "ratio", "time_s", "match_w", "match_ratio",
    )
    for path, g in _bench_graphs(args.inputs):
        match_w = str(matching_2approx_vc(g).weight)
        runs = []
        for name, oracle in zip(names, oracles):
            eps = 0.0 if name == "exact" else heuristic_eps
            try:
                runs.append((name, *_timed(approx_vc, g, oracle, eps)))
            except TooLarge:
                runs.append((name, None, None))
        # every completed row of an instance carries the same LP bound
        lp = next((res.lp_lower_bound for _, res, _ in runs if res is not None), 0)
        match_ratio = f"{Fraction(match_w) / lp}" if lp > 0 else "-"
        for name, res, seconds in runs:
            if res is None:
                rows.append(
                    (path.name, str(g.n), str(len(g.edges)), "-", name,
                     "cap-exceeded", "-", "-", "-", match_w, match_ratio)
                )
                continue
            frac = f"{res.kernel_stats.kernel_size}/{g.n}" if g.n else "0/0"
            ratio = (
                f"{res.certified_ratio_bound}"
                if res.certified_ratio_bound is not None
                else "-"
            )
            rows.append(
                (path.name, str(g.n), str(len(g.edges)), frac, name,
                 str(res.cover_weight), f"{res.lp_lower_bound}", ratio,
                 f"{seconds:.4f}", match_w, match_ratio)
            )
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(header))
    ]
    fmt_row = lambda r: "  ".join(str(r[i]).ljust(widths[i]) for i in range(len(r)))
    out = [fmt_row(header)] + [fmt_row(r) for r in rows]
    _emit("\n".join(out) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowncover",
        description="Approximate minimum-weight vertex covers via crown "
        "kernelization and independent set oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None,
                        help="write the result document here instead of stdout")
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--cap", type=int, default=None,
                     help=f"exact-oracle size cap (default "
                          f"{DEFAULT_BRUTE_CAP}, env CROWNCOVER_BRUTE_CAP)")
    solver = argparse.ArgumentParser(add_help=False, parents=[cap])
    solver.add_argument("--eps", type=float, default=None,
                        help="requested approximation error in [0, 1) (default:"
                             " 0 for solve, 0.5 for bench's heuristic rows)")
    solver.add_argument("--swap-size", type=int, default=None,
                        help="local search swap size override")
    solver.add_argument("--seed", type=int, default=0)

    def add(name: str, run, parents, help: str):
        # allow_abbrev=False: bench's `--oracle` must not pass for `--oracles`
        p = sub.add_parser(name, parents=parents, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        return p

    p_solve = add("solve", cmd_solve, [solver, output],
                  "approximate a minimum-weight vertex cover")
    p_solve.add_argument("input")
    p_solve.add_argument("--oracle", default="exact", choices=ORACLE_NAMES)

    p_kern = add("kernelize", cmd_kernelize, [output],
                 "emit the crown kernel as a graph file")
    p_kern.add_argument("input")

    p_gen = add("gen", cmd_gen, [output], "generate a random instance file")
    p_gen.add_argument("--kind", default="disks", choices=("disks", "rects", "gnp"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--p", type=float, default=0.3, help="gnp edge probability")
    p_gen.add_argument("--region", type=int, default=100)
    p_gen.add_argument("--size-min", type=int, default=1)
    p_gen.add_argument("--size-max", type=int, default=5)
    p_gen.add_argument("--weight-min", type=int, default=1)
    p_gen.add_argument("--weight-max", type=int, default=1)

    p_ver = add("verify", cmd_verify, [cap, output],
                "check a result document against its instance")
    p_ver.add_argument("input")
    p_ver.add_argument("result")

    p_bench = add("bench", cmd_bench, [solver, output],
                  "run the pipeline over instances and tabulate")
    p_bench.add_argument("inputs", nargs="+")
    p_bench.add_argument("--oracles", default=",".join(ORACLE_NAMES),
                         help="comma-separated oracle names")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except TooLarge as exc:
        _diag(f"error: {exc}")
        return 3
    except FileNotFoundError as exc:
        _diag(f"error: {exc}")
        return 2
    except CrownCoverError as exc:
        _diag(f"error: {exc}")
        return 2
    except Exception as exc:
        import traceback  # only on this path, so startup imports stay as they are

        _diag(f"internal error: {exc}")
        traceback.print_exc(file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
