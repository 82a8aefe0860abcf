"""Pipeline benchmark: `crowncover solve`, then `crowncover verify`, on seeded corpora.

Run from the repository root:

    python3 perfbench/run.py --workload disks-greedy --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, end to end
    python3 perfbench/run.py --smoke                     # tiny sizes: names, units, determinism

`--trace 0` measures end to end. It is a closed loop with one client: each
instance is solved by a fresh `python3 -m crowncover solve` child, then
checked by a `crowncover verify` child, one child at a time, cycling through
the corpus until `--seconds` have passed and every instance has been done
once. Outside the timed region each answer is cross-checked against an
independent intersection graph and scipy's HiGHS LP. `ok_frac` is
1 - failed/attempted, where a failure is a non-zero exit, a verify that does
not print OK, or a failed cross-check.

The timings are calibrated. On a shared 2-vCPU VM the speed of the machine
changes by up to 1.6x within seconds and for minutes at a time, and it moves
every child alike, `import crowncover` too. So every timed child runs
between two children of a fixed calibration program that runs no crowncover
code, and its wall time is scaled by `CALIBRATION_REF_S` over the mean of
those two calibrations: the seconds it would take on a machine where the
calibration takes `CALIBRATION_REF_S`. A slower crowncover moves the scaled
time in full; a slow phase of the machine mostly cancels. `solve_s`,
`verify_s` and `setup_s` (a fresh interpreter running `import crowncover`,
sampled 7 times over the run) are medians of scaled times, and
`vertices_per_s` is the median over solve-and-verify steps of n divided by
the step's scaled time. The record keeps every raw wall time and both
calibrations of each sample, and the report prints raw medians too.

`--trace 1` gives the per-layer numbers. One pass of untraced children is
followed by the same commands run in process through `crowncover.cli.main`
with the layer trace of `spans.py` installed; the traced result documents
must be byte-identical to the children's.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The full record (environment, corpus
digest, SHA-256 of every result document) goes to `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import corpus
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 7

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "vertices_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cover_weight": "count",
    "ratio_bound": "ratio",
    "ok_frac": "frac",
}
PER_LAYER = {
    **{f"{name}.{k}": u for name in spans.SPAN_NAMES for k, u in (("self_s", "s"), ("calls", "count"))},
    "geometry.edges": "count",
    "flow.arcs": "count",
    "kernelize.kernel_frac": "frac",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "frac",
}

# Runs cli.main in a child and writes its in-process wall time to argv[1].
_TIMED_CHILD = (
    "import sys, time\n"
    "from crowncover.cli import main\n"
    "t = time.perf_counter()\n"
    "rc = main(sys.argv[2:])\n"
    "open(sys.argv[1], 'w').write(repr(time.perf_counter() - t))\n"
    "sys.exit(rc)\n"
)

# A fixed child that runs no crowncover code: interpreter start-up, `import
# numpy`, a numpy sort and pure-Python dict and list work, the mix of a solve
# child. Its wall time measures how fast the shared machine is at that moment.
_CALIBRATION = (
    "import numpy as np\n"
    "a = np.random.default_rng(12345).random(400_000)\n"
    "a.sort()\n"
    "d = {}\n"
    "for i in range(300_000):\n"
    "    k = (i * 7919) % 4099\n"
    "    d[k] = d.get(k, 0) + i\n"
    "adj = [[] for _ in range(2000)]\n"
    "for i in range(60_000):\n"
    "    adj[(i * 31) % 2000].append(i)\n"
)
# Timings are reported in seconds of a machine on which the calibration child
# takes this long (about its time in a quiet spell of a 2-vCPU Intel Xeon VM).
CALIBRATION_REF_S = 0.25


class Children:
    """Starts one child at a time and reaps it with its resource usage."""

    def __init__(self, deadline: float, log: Path):
        self.deadline = deadline
        self.log = log
        src_path = str(SRC) + (os.pathsep + os.environ["PYTHONPATH"]
                               if os.environ.get("PYTHONPATH") else "")
        self.env = dict(os.environ, PYTHONPATH=src_path)

    def run(self, argv: list[str]) -> tuple[float, int, int]:
        """Return (wall seconds, exit code, peak RSS in KiB) of one child."""
        with self.log.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = self.log.read_text(encoding="utf-8", errors="replace").strip()[-400:]
            print(f"child {argv[:3]} exited {proc.returncode}: {tail}", file=sys.stderr)
        return wall, proc.returncode, usage.ru_maxrss


def _solve_argv(w: corpus.Workload, inst: corpus.Instance, out: Path) -> list[str]:
    return ["solve", str(inst.path), *w.solve_args, "-o", str(out)]


def _verify_argv(inst: corpus.Instance, doc: Path, out: Path) -> list[str]:
    return ["verify", str(inst.path), str(doc), "-o", str(out)]


def _verified(path: Path) -> bool:
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    return bool(lines) and lines[-1] == "OK"


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAIL {what}", file=sys.stderr)
        return ok


class Calibrated:
    """Runs each timed child between two calibration children.

    A sample is (instance, wall, calibration before, calibration after).
    """

    def __init__(self, kids: Children, tally: Tally):
        self.kids, self.tally = kids, tally
        self.cal = self._calibrate()

    def _calibrate(self) -> float | None:
        wall, rc, _ = self.kids.run(["-c", _CALIBRATION])
        return wall if self.tally.check(rc == 0, "calibration child") else None

    def run(self, argv: list[str], instance=None) -> tuple[tuple | None, int, int]:
        """Return (sample or None, exit code, peak RSS in KiB) of one child."""
        wall, rc, kb = self.kids.run(argv)
        before, self.cal = self.cal, self._calibrate()
        return (instance, wall, before, self.cal) if before and self.cal else None, rc, kb


def scaled(sample: tuple) -> float:
    """Wall time in seconds of a machine whose calibration child takes CALIBRATION_REF_S.

    A slow phase of a shared machine stretches the calibrations on either
    side of a child about as much as the child, so it cancels; a slower
    crowncover does not touch the calibrations.
    """
    _, wall, before, after = sample
    return wall * CALIBRATION_REF_S / ((before + after) / 2)


def closed_loop(w, insts, seconds, kids: Children, tally: Tally, out_dir: Path) -> dict:
    """Solve then verify each instance in turn, one child at a time.

    Runs until `seconds` have passed and every instance has been solved and
    verified once. Later solves must reproduce the first document. The set-up
    samples, fresh interpreters running `import crowncover`, are spread over
    the run.
    """
    docs: dict[int, bytes] = {}
    samples = {"setup_s": [], "solve_s": [], "verify_s": []}
    rss = 0
    kids.run(["-c", "import crowncover"])  # warms the file cache and writes bytecode
    timed = Calibrated(kids, tally)
    start = time.perf_counter()
    step = setups = 0
    while step < len(insts) or time.perf_counter() - start < seconds or setups < SETUP_SAMPLES:
        if setups < SETUP_SAMPLES and setups * seconds <= SETUP_SAMPLES * (
                time.perf_counter() - start):
            setups += 1
            sample, rc, _ = timed.run(["-c", "import crowncover"])
            if tally.check(rc == 0, "import crowncover") and sample:
                samples["setup_s"].append(sample)
            continue
        if step >= len(insts) and time.perf_counter() - start >= seconds:
            continue
        idx = step % len(insts)
        inst = insts[idx]
        step += 1
        doc, ver = out_dir / f"{inst.path.stem}.json", out_dir / f"{inst.path.stem}.verify"
        solve, rc, kb = timed.run(["-m", "crowncover", *_solve_argv(w, inst, doc)], idx)
        rss = max(rss, kb)
        text = doc.read_bytes() if rc == 0 else None
        if not tally.check(rc == 0 and docs.setdefault(idx, text) == text,
                           f"solve {inst.path.name} (exit {rc}, or its document changed)"):
            continue
        verify, rc, kb = timed.run(["-m", "crowncover", *_verify_argv(inst, doc, ver)], idx)
        rss = max(rss, kb)
        if tally.check(rc == 0 and _verified(ver), f"verify {inst.path.name} (exit {rc})") \
                and solve and verify:
            samples["solve_s"].append(solve)
            samples["verify_s"].append(verify)
    return {"docs": docs, "samples": samples, "rss_kib": rss,
            "timed_s": time.perf_counter() - start}


def cross_check(insts, docs: dict[int, bytes], tally: Tally) -> list[dict]:
    """Check every answer against independent edges and the HiGHS LP value."""
    rows = []
    for idx, inst in enumerate(insts):
        if idx not in docs:
            continue
        doc = json.loads(docs[idx])
        edges = corpus.reference_edges(inst)
        highs = corpus.highs_lp_value(inst.n, inst.weights, edges)
        lp = Fraction(doc["lp_bound"])
        tally.check(Fraction(round(2 * highs), 2) == lp,
                    f"{inst.path.name}: HiGHS LP {highs} vs lp_bound {lp}")
        cover = set(doc["cover"])
        covered = all(u + 1 in cover or v + 1 in cover for u, v in edges.tolist())
        in_range = cover <= set(range(1, inst.n + 1))
        weight = sum(inst.weights[v - 1] for v in cover) if in_range else None
        tally.check(covered and weight == doc["cover_weight"],
                    f"{inst.path.name}: independent cover check")
        rows.append({"instance": inst.path.name, "n": inst.n, "m": len(edges),
                     "highs_lp": highs, "lp_bound": doc["lp_bound"],
                     "cover_weight": doc["cover_weight"], "ratio_bound": doc.get("ratio_bound"),
                     "sha256": hashlib.sha256(docs[idx]).hexdigest()})
    return rows


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def run_end_to_end(w, insts, seconds, kids, tally, out_dir) -> tuple[dict, dict]:
    loop = closed_loop(w, insts, seconds, kids, tally, out_dir)
    checks = cross_check(insts, loop["docs"], tally)
    ratios = [Fraction(r["ratio_bound"]) for r in checks if r["ratio_bound"] is not None]
    samples = loop["samples"]
    values = {k: _median(map(scaled, v)) for k, v in samples.items()}
    values.update({
        "vertices_per_s": _median(insts[s[0]].n / (scaled(s) + scaled(v))
                                  for s, v in zip(samples["solve_s"], samples["verify_s"])),
        "peak_rss_mb": loop["rss_kib"] / 1024,
        "cover_weight": sum(r["cover_weight"] for r in checks),
        "ratio_bound": float(sum(ratios) / len(ratios)) if ratios else float("nan"),
        "ok_frac": 1 - len(tally.failures) / tally.attempted,
    })
    timings = {k: {"scaled_median": values[k], "raw_median": _median(s[1] for s in v),
                   "samples": len(v), "instances": len({s[0] for s in v})}
               for k, v in samples.items()}
    record = {"timings": timings, "timed_s": loop["timed_s"],
              "calibration_ref_s": CALIBRATION_REF_S,
              "samples": {k: [[s[0] if s[0] is None else insts[s[0]].path.name, *s[1:]]
                              for s in v] for k, v in samples.items()},
              "failed_frac": len(tally.failures) / tally.attempted, "instances": checks}
    return values, record


def _child_pass(w, insts, kids: Children, tally: Tally, out_dir: Path) -> list[dict]:
    """One untraced pass; each child also reports its in-process cli.main time."""
    rows = []
    for inst in insts:
        doc, ver = out_dir / f"{inst.path.stem}.json", out_dir / f"{inst.path.stem}.verify"
        row = {"doc": None}
        for cmd, argv in (("solve", _solve_argv(w, inst, doc)),
                          ("verify", _verify_argv(inst, doc, ver))):
            main_file = out_dir / "main_s.txt"
            wall, rc, _ = kids.run(["-c", _TIMED_CHILD, str(main_file), *argv])
            ok = rc == 0 and (cmd == "solve" or _verified(ver))
            if not tally.check(ok, f"untraced {cmd} {inst.path.name} (exit {rc})"):
                break
            row[cmd] = (wall, float(main_file.read_text(encoding="utf-8")))
            if cmd == "solve":
                row["doc"] = doc.read_bytes()
        rows.append(row)
    return rows


def _crowncover(module: str):
    """Import a crowncover module from this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module(f"crowncover.{module}")


def run_traced(w, insts, kids, tally, out_dir: Path, trace_file: Path) -> tuple[dict, dict]:
    for sub in ("untraced", "traced"):
        (out_dir / sub).mkdir()
    untraced = _child_pass(w, insts, kids, tally, out_dir / "untraced")
    cli = _crowncover("cli")
    tracer = spans.Tracer()
    traced_dir = out_dir / "traced"
    in_process = 0.0
    table = []
    tracer.install()
    try:
        for inst, child in zip(insts, untraced):
            doc, ver = traced_dir / f"{inst.path.stem}.json", traced_dir / f"{inst.path.stem}.verify"
            for cmd, argv in (("solve", _solve_argv(w, inst, doc)),
                              ("verify", _verify_argv(inst, doc, ver))):
                tracer.instance = f"{inst.path.stem}:{cmd}"
                start = time.perf_counter()
                with contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
                in_process += time.perf_counter() - start
                tally.check(rc == 0 and (cmd == "solve" or _verified(ver)),
                            f"traced {cmd} {inst.path.name} (exit {rc})")
            tally.check(child["doc"] is not None and doc.read_bytes() == child["doc"],
                        f"traced document of {inst.path.name} differs from the child's")
            solve = f"{inst.path.stem}:solve"
            table.append({
                "n": inst.n,
                "m": sum(v for i, k, v in tracer.counts if i == solve and k == "geometry.edges"),
                "kernel": sum(v for i, k, v in tracer.counts
                              if i == solve and k == "kernelize.kernel_size"),
                "intersection_graph_s": tracer.inclusive("geometry.intersection_graph", solve),
                "max_flow_s": tracer.inclusive("flow.max_flow", solve),
                "approx_vc_s": tracer.inclusive("approx.approx_vc", solve),
            })
    finally:
        tracer.uninstall()
    tracer.write(trace_file)

    self_times = tracer.self_times()
    values = {}
    for name in spans.SPAN_NAMES:
        s, k = self_times.get(name, (0.0, 0))
        values[f"{name}.self_s"] = s
        values[f"{name}.calls"] = k
    totals = {}
    for _, name, v in tracer.counts:
        totals[name] = totals.get(name, 0) + v
    child_main = [r[cmd] for r in untraced for cmd in ("solve", "verify") if cmd in r]
    attributed = sum(s for name, (s, _) in self_times.items() if name != "cli.main")
    values.update({
        "geometry.edges": totals.get("geometry.edges", 0),
        "flow.arcs": totals.get("flow.arcs", 0),
        "kernelize.kernel_frac": totals.get("kernelize.kernel_size", 0) / sum(i.n for i in insts),
        "cli.overhead_s": statistics.median(wall - main for wall, main in child_main)
        if child_main else float("nan"),
        "trace.overhead_s": in_process - sum(main for _, main in child_main),
        "trace.coverage": attributed / in_process if in_process else 0.0,
    })
    return values, {"in_process_s": in_process, "roadmap_table": table}


def environment() -> dict:
    import numpy
    import scipy

    using_numba = _crowncover("_kernels").USING_NUMBA
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "using_numba": using_numba,
        "crowncover_env": {k: v for k, v in os.environ.items() if k.startswith("CROWNCOVER_")},
        "kernels": "numba-compiled" if using_numba
        else "numpy/pure-Python fallback: these numbers do not describe numba",
        "load": "closed loop, one client, one child process at a time",
    }


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    w = corpus.WORKLOADS[name]
    why = {x["name"]: x["why"] for x in _spec()["workloads"]}[name]
    n, count = corpus.SMOKE_SIZES[name] if smoke else (w.n, w.count)
    out_dir = WORK / f"{name}-s{seed}-t{trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    insts = corpus.generate(w, seed, out_dir / "inputs", n, count)
    kids = Children(time.perf_counter() + DEADLINE_S, out_dir / "child.err")
    tally = Tally()
    if trace:
        values, record = run_traced(w, insts, kids, tally, out_dir, out_dir / "trace.jsonl")
        units = PER_LAYER
        # At smoke sizes argument parsing alone is a large share of each call.
        tally.check(smoke or values["trace.coverage"] >= 0.9,
                    f"self times cover {values['trace.coverage']:.3f} of in-process wall time")
    else:
        values, record = run_end_to_end(w, insts, seconds, kids, tally, out_dir)
        units = END_TO_END
    record.update({"workload": name, "why": why, "seed": seed, "trace": trace,
                   "n": n, "instances_in_corpus": count,
                   "corpus_sha256": corpus.corpus_digest(insts), "environment": environment(),
                   "failures": tally.failures, "metrics": values})
    (out_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            "record": record}


def report(name: str, res: dict) -> None:
    rec = res["record"]
    print(f"== {name} seed {rec['seed']} trace {rec['trace']}: n={rec['n']} x "
          f"{rec['instances_in_corpus']} instances, corpus sha256 {rec['corpus_sha256'][:16]}")
    print(f"   kernels: {rec['environment']['kernels']}")
    for key, t in rec.get("timings", {}).items():
        print(f"   {key}: median {t['scaled_median']:.4f} s scaled, raw {t['raw_median']:.4f} s;"
              f" {t['samples']} samples of {t['instances']} instances")
    if "failed_frac" in rec:
        print(f"   failed_frac: {rec['failed_frac']:.4f} ({res['failed']} of {res['attempted']})")
    for k, v in res["metrics"].items():
        print(f"   {k} = {v['value']:.6g} {v['unit']}")
    for row in rec.get("instances", []):
        print(f"   {row['instance']} n={row['n']} m={row['m']} cover={row['cover_weight']} "
              f"lp={row['lp_bound']} highs={row['highs_lp']:g} sha256={row['sha256'][:16]}")
    if rec.get("roadmap_table"):
        print("   n      m       kernel  intersection_graph_s  max_flow_s  approx_vc_s")
        for r in rec["roadmap_table"]:
            print(f"   {r['n']:<6} {r['m']:<7} {r['kernel']:<7} {r['intersection_graph_s']:<21.4f}"
                  f" {r['max_flow_s']:<11.4f} {r['approx_vc_s']:.4f}")


def smoke() -> int:
    """Tiny sizes: every metric is printed with the unit BENCHMARK.json declares,
    every answer checks out, and one seed gives byte-identical inputs twice."""
    spec = _spec()
    problems = []
    if [x["name"] for x in spec["workloads"]] != list(corpus.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from corpus.WORKLOADS")
    for name, w in corpus.WORKLOADS.items():
        n, count = corpus.SMOKE_SIZES[name]
        digests = {corpus.corpus_digest(corpus.generate(w, 3, WORK / f"smoke-{name}-{k}", n, count))
                   for k in range(2)}
        if len(digests) != 1:
            problems.append(f"{name}: seed 3 gave different inputs on two generations")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(name, 3, 1, trace, smoke=True)
            report(name, res)
            want = {x["name"]: x["unit"] for x in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {got} != {key} {want}")
            if not res["correct"]:
                problems.append(f"{name} trace {trace}: {res['record']['failures']}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke OK" if not problems else f"smoke FAILED ({len(problems)} problems)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*corpus.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; checks, then exits")
    args = ap.parse_args(argv)
    if not (SRC / "crowncover" / "__init__.py").is_file():
        print(f"error: no crowncover sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload != "all":
        res = run(args.workload, args.seed, args.seconds, args.trace)
        report(args.workload, res)
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    # One process per workload, so no workload's memory shows in another's peak RSS.
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in corpus.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=200,
        ).stdout.splitlines()
        print("\n".join(out[:-1]))
        res = json.loads(out[-1])
        final["correct"] &= res["correct"]
        final["attempted"] += res["attempted"]
        final["failed"] += res["failed"]
        final["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
