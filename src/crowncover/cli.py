"""Command line interface.

Commands: solve, kernelize, gen, verify, bench. stdout carries only the
result document; everything diagnostic goes to stderr. Exit codes: 0 ok,
1 failed verification, 2 malformed input or bad parameters, 3 exact-oracle
cap exceeded, 4 internal error (message and traceback on stderr).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .approx import approx_vc, matching_2approx_vc, timed, verify_result
from .errors import CrownCoverError, TooLarge
from .geometry import ShapeSet, generate_instance, intersection_graph
from .graph import random_gnp_graph
from .halfint import half_integral_solution, lp_value
from .ioformats import (
    parse_graph,
    parse_instance,
    parse_result,
    parse_shapes,
    result_from_doc,
    write_graph,
    write_result,
    write_shapes,
)
from .kernelize import kernelize
from .oracles import DEFAULT_BRUTE_CAP, ORACLE_NAMES, check_brute_cap, make_oracle


@dataclass(frozen=True)
class RunConfig:
    command: str
    inputs: tuple[str, ...] = ()
    fmt: str = "auto"
    oracle: str = "exact"
    oracles: tuple[str, ...] = ORACLE_NAMES
    eps: float = 0.0
    swap_size: int | None = None
    seed: int = 0
    cap: int | None = None
    output: str | None = None
    result_path: str | None = None
    kind: str = "disks"
    n: int = 0
    p: float = 0.3
    region: int = 100
    size_range: tuple[int, int] = (1, 5)
    weight_range: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if not (0 <= self.eps < 1):
            raise _UsageError(f"eps must be in [0, 1), got {self.eps}")
        if self.cap is not None:
            check_brute_cap(self.cap, "cap")
        if self.swap_size is not None and self.swap_size < 1:
            raise _UsageError(f"swap size must be >= 1, got {self.swap_size}")
        if not self.oracles:
            raise _UsageError(f"--oracles needs at least one of {', '.join(ORACLE_NAMES)}")


class _UsageError(CrownCoverError):
    pass


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _load_graph(path: str, fmt: str):
    """Read an instance file and return (graph, n_shapes or None)."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "graph":
        inst = parse_graph(text)
    elif fmt in ("disks", "rects", "shapes"):
        inst = parse_shapes(text)
    else:
        inst = parse_instance(text)
    if isinstance(inst, ShapeSet):
        g, _ = intersection_graph(inst)
        return g, len(inst)
    return inst, None


def cmd_solve(cfg: RunConfig) -> int:
    g, n_shapes = _load_graph(cfg.inputs[0], cfg.fmt)
    if n_shapes is not None:
        _diag(f"intersection graph: {g.n} vertices, {len(g.edges)} edges")
    oracle = make_oracle(
        cfg.oracle, eps=cfg.eps or None, swap_size=cfg.swap_size,
        seed=cfg.seed, cap=cfg.cap,
    )
    res, seconds = timed(approx_vc, g, oracle, cfg.eps)
    _emit(write_result(res), cfg.output)
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


def cmd_kernelize(cfg: RunConfig) -> int:
    g, _ = _load_graph(cfg.inputs[0], cfg.fmt)
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
    _emit(doc, cfg.output)
    _diag(
        f"kernel {kg.n} of {g.n} vertices; forced weight {ones.weight},"
        f" dropped weight {zeros.weight}"
    )
    return 0


def cmd_gen(cfg: RunConfig) -> int:
    if cfg.kind == "gnp":
        g = random_gnp_graph(
            cfg.n, cfg.p, weight_range=cfg.weight_range, seed=cfg.seed
        )
        _emit(write_graph(g), cfg.output)
        _diag(f"generated gnp graph: n={g.n}, m={len(g.edges)}, seed={cfg.seed}")
        return 0
    shapes = generate_instance(
        cfg.kind,
        cfg.n,
        seed=cfg.seed,
        region=cfg.region,
        size_range=cfg.size_range,
        weight_range=cfg.weight_range,
    )
    _emit(write_shapes(shapes), cfg.output)
    _diag(f"generated {len(shapes)} {shapes.kind}, seed={cfg.seed}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    g, _ = _load_graph(cfg.inputs[0], cfg.fmt)
    doc = parse_result(Path(cfg.result_path).read_text(encoding="utf-8"))
    res = result_from_doc(doc, g)
    report = verify_result(g, res, cap=cfg.cap)
    out = []
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        out.append(f"{status} {check.name}: {check.detail}")
    if report.exact_ratio is not None:
        out.append(f"INFO exact_ratio: {report.exact_ratio}")
    out.append("OK" if report.passed else "FAILED")
    _emit("\n".join(out) + "\n", cfg.output)
    return 0 if report.passed else 1


def _bench_paths(inputs: tuple[str, ...]) -> list[Path]:
    paths: list[Path] = []
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(q for q in p.iterdir() if q.is_file()))
        else:
            paths.append(p)
    return paths


def cmd_bench(cfg: RunConfig) -> int:
    rows = []
    header = (
        "instance", "n", "m", "kernel_frac", "oracle", "cover_w",
        "lp_bound", "ratio", "time_s", "match_w", "match_ratio",
    )
    for path in _bench_paths(cfg.inputs):
        g, _ = _load_graph(str(path), cfg.fmt)
        match_cover = matching_2approx_vc(g)
        lp = lp_value(half_integral_solution(g), g)
        match_ratio = f"{Fraction(match_cover.weight) / lp}" if lp > 0 else "-"
        for name in cfg.oracles:
            oracle = make_oracle(
                name, eps=cfg.eps or None, swap_size=cfg.swap_size,
                seed=cfg.seed, cap=cfg.cap,
            )
            # heuristic rows need a declared eps; fall back to 0.5 if unset
            eps = 0.0 if name == "exact" else (cfg.eps if cfg.eps > 0 else 0.5)
            try:
                res, seconds = timed(approx_vc, g, oracle, eps)
            except TooLarge:
                rows.append(
                    (path.name, str(g.n), str(len(g.edges)), "-", name,
                     "cap-exceeded", "-", "-", "-", str(match_cover.weight), match_ratio)
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
                 f"{seconds:.4f}", str(match_cover.weight), match_ratio)
            )
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(header))
    ]
    fmt_row = lambda r: "  ".join(str(r[i]).ljust(widths[i]) for i in range(len(r)))
    out = [fmt_row(header)] + [fmt_row(r) for r in rows]
    _emit("\n".join(out) + "\n", cfg.output)
    return 0


_DISPATCH = {
    "solve": cmd_solve,
    "kernelize": cmd_kernelize,
    "gen": cmd_gen,
    "verify": cmd_verify,
    "bench": cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowncover",
        description="Approximate minimum-weight vertex covers via crown "
        "kernelization and independent set oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_oracle=True):
        p.add_argument("--format", default="auto",
                       choices=("auto", "graph", "disks", "rects"),
                       help="input format (default: detect from header)")
        p.add_argument("-o", "--output", default=None,
                       help="write the result document here instead of stdout")
        if with_oracle:
            p.add_argument("--oracle", default="exact", choices=ORACLE_NAMES)
            p.add_argument("--eps", type=float, default=0.0,
                           help="requested approximation error in [0, 1)")
            p.add_argument("--swap-size", type=int, default=None,
                           help="local search swap size override")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--cap", type=int, default=None,
                           help=f"exact-oracle size cap (default "
                                f"{DEFAULT_BRUTE_CAP}, env CROWNCOVER_BRUTE_CAP)")

    p_solve = sub.add_parser("solve", help="approximate a minimum-weight vertex cover")
    p_solve.add_argument("input")
    add_common(p_solve)

    p_kern = sub.add_parser("kernelize", help="emit the crown kernel as a graph file")
    p_kern.add_argument("input")
    add_common(p_kern, with_oracle=False)

    p_gen = sub.add_parser("gen", help="generate a random instance file")
    p_gen.add_argument("--kind", default="disks", choices=("disks", "rects", "gnp"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--p", type=float, default=0.3, help="gnp edge probability")
    p_gen.add_argument("--region", type=int, default=100)
    p_gen.add_argument("--size-min", type=int, default=1)
    p_gen.add_argument("--size-max", type=int, default=5)
    p_gen.add_argument("--weight-min", type=int, default=1)
    p_gen.add_argument("--weight-max", type=int, default=1)
    p_gen.add_argument("-o", "--output", default=None)

    p_ver = sub.add_parser("verify", help="check a result document against its instance")
    p_ver.add_argument("input")
    p_ver.add_argument("result")
    p_ver.add_argument("--format", default="auto",
                       choices=("auto", "graph", "disks", "rects"))
    p_ver.add_argument("--cap", type=int, default=None)
    p_ver.add_argument("-o", "--output", default=None)

    p_bench = sub.add_parser("bench", help="run the pipeline over instances and tabulate")
    p_bench.add_argument("inputs", nargs="+")
    p_bench.add_argument("--oracles", default=",".join(ORACLE_NAMES),
                         help="comma-separated oracle names")
    add_common(p_bench)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    kw: dict = {"command": args.command}
    if args.command == "gen":
        kw.update(
            kind=args.kind, n=args.n, seed=args.seed, p=args.p,
            region=args.region, size_range=(args.size_min, args.size_max),
            weight_range=(args.weight_min, args.weight_max), output=args.output,
        )
        if args.n < 0:
            raise _UsageError(f"n must be >= 0, got {args.n}")
        return RunConfig(**kw)
    kw["fmt"] = args.format
    kw["output"] = args.output
    if args.command == "verify":
        kw.update(inputs=(args.input,), result_path=args.result, cap=args.cap)
        return RunConfig(**kw)
    if args.command == "bench":
        kw["inputs"] = tuple(args.inputs)
        kw["oracles"] = tuple(s.strip() for s in args.oracles.split(",") if s.strip())
    else:
        kw["inputs"] = (args.input,)
    if args.command in ("solve", "bench"):
        kw.update(
            oracle=args.oracle, eps=args.eps, swap_size=args.swap_size,
            seed=args.seed, cap=args.cap,
        )
    return RunConfig(**kw)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _DISPATCH[cfg.command](cfg)
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
