"""Workload corpora and the reference checks that do not use crowncover.

Every instance is written by this module's own seeded generator, so a change
to `crowncover gen` or `generate_instance` cannot change the inputs. The
same module recomputes each instance's intersection graph with integer
arithmetic and solves the vertex cover LP with scipy's HiGHS, which gives
the cross-checks an answer that owes nothing to the program under test.

numpy and scipy are imported only by the checks, after the timed region:
Linux counts the parent's resident size at spawn time into each child's
`ru_maxrss`, so the benchmark process stays small while children run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One corpus shape. Lengths are in whole units; files use a 0.01 grid.

    Why each workload was chosen is recorded once, in BENCHMARK.json.
    """

    name: str
    kind: str  # "disks" or "rects"
    n: int  # shapes per instance
    region: int  # coordinates of centres / lower-left corners in [0, region]
    size: tuple[int, int]  # disk radius or rect side range
    weights: tuple[int, int]
    count: int  # instances per corpus
    solve_args: tuple[str, ...]


# Every instance of a corpus is solved and verified at least once in a run,
# so a corpus is sized for its first pass to take under 30 s on a slow
# 2-core machine. The timings are medians over the samples of all its
# instances, so a corpus holds several of them to keep the seed's draw of
# instances from moving the figures. disks-greedy and rects-sparse use n=1500 in [0,71]^2 and n=5000
# in [0,350]^2, the densities of n=3000 in [0,100]^2 and n=20000 in
# [0,700]^2, so that a run times each instance more than once. The t=4 local
# search time varies several-fold between instances of one size (it grows
# about with the cube of the number of outside vertices that have one
# conflict), so disks-local times twenty n=200 instances, at the density of
# n=400 in [0,100]^2.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("disks-greedy", "disks", 1500, 71, (1, 5), (1, 1), 6,
                 ("--oracle", "greedy", "--eps", "0.5")),
        Workload("rects-sparse", "rects", 5000, 350, (1, 5), (1, 100), 6,
                 ("--oracle", "greedy", "--eps", "0.5")),
        Workload("disks-local", "disks", 200, 71, (1, 5), (1, 1), 20,
                 ("--oracle", "local-search", "--eps", "0.5")),
    )
}

# Smoke mode keeps each workload's shape and oracle but shrinks it.
SMOKE_SIZES = {"disks-greedy": (60, 2), "rects-sparse": (80, 2), "disks-local": (30, 3)}


@dataclass(frozen=True)
class Instance:
    path: Path
    kind: str
    weights: tuple[int, ...]
    cols: tuple[tuple[int, ...], ...]  # hundredths: (x, y, r) or (x1, y1, x2, y2)

    @property
    def n(self) -> int:
        return len(self.weights)


def _hundredths(v: int) -> str:
    return f"{v // 100}.{v % 100:02d}"


def generate(w: Workload, seed: int, out_dir: Path, n: int, count: int) -> list[Instance]:
    """Write `count` instance files for `w` and `seed`; same seed, same bytes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    insts = []
    for idx in range(count):
        rng = random.Random(f"perfbench:{w.name}:{seed}:{idx}")
        span = w.region * 100
        lo, hi = w.size[0] * 100, w.size[1] * 100
        lines = [f"p {w.kind} {n}"]
        if w.kind == "disks":
            rows = [(rng.randrange(span + 1), rng.randrange(span + 1), rng.randrange(lo, hi + 1))
                    for _ in range(n)]
            weights = [rng.randint(*w.weights) for _ in range(n)]
            lines += [f"d {_hundredths(x)} {_hundredths(y)} {_hundredths(r)} {wt}"
                      for (x, y, r), wt in zip(rows, weights)]
        else:
            rows = []
            for _ in range(n):
                x, y = rng.randrange(span + 1), rng.randrange(span + 1)
                rows.append((x, y, x + rng.randrange(lo, hi + 1), y + rng.randrange(lo, hi + 1)))
            weights = [rng.randint(*w.weights) for _ in range(n)]
            lines += [f"r {' '.join(_hundredths(c) for c in row)} {wt}"
                      for row, wt in zip(rows, weights)]
        path = out_dir / f"inst_{idx:03d}.shapes"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        insts.append(Instance(path, w.kind, tuple(weights), tuple(zip(*rows))))
    return insts


def corpus_digest(insts: list[Instance]) -> str:
    h = hashlib.sha256()
    for inst in insts:
        h.update(inst.path.read_bytes())
    return h.hexdigest()


def reference_edges(inst: Instance):
    """Closed-intersection edges as an (m, 2) array, decided in integers.

    A k-d tree proposes every pair within the largest possible reach; the
    exact integer test then decides each candidate.
    """
    import numpy as np
    from scipy.spatial import cKDTree

    cols = [np.array(c, dtype=np.int64) for c in inst.cols]
    if inst.kind == "disks":
        x, y, r = cols
        tree = cKDTree(np.column_stack([x, y]).astype(np.float64))
        pairs = tree.query_pairs(2 * float(r.max()) + 1, output_type="ndarray")
        i, j = pairs[:, 0], pairs[:, 1]
        dx, dy, rr = x[i] - x[j], y[i] - y[j], r[i] + r[j]
        keep = dx * dx + dy * dy <= rr * rr
    else:
        x1, y1, x2, y2 = cols
        reach = float(max((x2 - x1).max(), (y2 - y1).max())) + 1
        tree = cKDTree(np.column_stack([x1, y1]).astype(np.float64))
        pairs = tree.query_pairs(reach, p=np.inf, output_type="ndarray")
        i, j = pairs[:, 0], pairs[:, 1]
        keep = (x1[i] <= x2[j]) & (x1[j] <= x2[i]) & (y1[i] <= y2[j]) & (y1[j] <= y2[i])
    return pairs[keep]


def highs_lp_value(n: int, weights, edges) -> float:
    """Optimum of min w.x subject to x_u + x_v >= 1 per edge, 0 <= x <= 1."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    if len(edges) == 0:
        return 0.0
    m = len(edges)
    rows = np.repeat(np.arange(m), 2)
    a_ub = csr_matrix((-np.ones(2 * m), (rows, edges.reshape(-1))), shape=(m, n))
    res = linprog(np.array(weights, dtype=np.float64), A_ub=a_ub, b_ub=-np.ones(m),
                  bounds=(0, 1), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)
