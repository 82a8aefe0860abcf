"""Outside-in layer trace: spans around crowncover's public functions.

Nothing in `src/` knows about tracing. `Tracer.install` replaces each traced
function at every module attribute of the loaded crowncover package that
holds it under its public name (where callers look it up at call time), and
`uninstall` puts the originals back. Spans stay in memory until `write`.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (module, function) of each traced layer boundary; cli.main is the root.
TRACED = (
    ("cli", "main"),
    ("ioformats", "parse_instance"),
    ("ioformats", "parse_result"),
    ("ioformats", "result_from_doc"),
    ("ioformats", "write_result"),
    ("geometry", "intersection_graph"),
    ("_kernels", "disk_pairs"),
    ("_kernels", "rect_pairs"),
    ("graph", "build_graph"),
    ("graph", "induced_subgraph"),
    ("approx", "approx_vc"),
    ("approx", "verify_result"),
    ("halfint", "half_integral_solution"),
    ("flow", "build_bipartite_double"),
    ("flow", "max_flow"),
    ("flow", "min_cut_cover"),
    ("_kernels", "dinic"),
    ("_kernels", "residual_reachable"),
    ("kernelize", "partition"),
    ("kernelize", "lift"),
    ("oracles", "greedy_is"),
    ("oracles", "local_search_is"),
)
# Span and metric names; a metric name must start with a letter or digit,
# so `_kernels.dinic` is reported as `kernels.dinic`.
SPAN_NAMES = tuple(f"{m.lstrip('_')}.{f}" for m, f in TRACED)

# Counts taken from a traced function's result: span name -> (counter, fn).
COUNTERS = {
    "geometry.intersection_graph": ("geometry.edges", lambda r: len(r[0].edges)),
    "flow.build_bipartite_double": ("flow.arcs", lambda r: len(r.tails)),
    "kernelize.partition": ("kernelize.kernel_size", lambda r: len(r.halves)),
}


class Tracer:
    """Collects spans as [name, start, end, parent index, instance id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, str, int]] = []
        self.instance = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                self.counts.append((self.instance, counter[0], counter[1](result)))
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "crowncover" or key.startswith("crowncover."))]
        for (mod_name, attr), name in zip(TRACED, SPAN_NAMES):
            target = getattr(sys.modules[f"crowncover.{mod_name}"], attr)
            wrapper = self._wrap(name, target)
            for mod in modules:
                if vars(mod).get(attr) is target:
                    self._saved.append((mod, attr, target))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, target = self._saved.pop()
            setattr(mod, attr, target)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (self seconds, calls). Self = duration - children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            s, k = out.get(name, (0.0, 0))
            out[name] = (s + (end - start) - c, k + 1)
        return out

    def inclusive(self, name: str, instance: str) -> float:
        return sum(e - s for n, s, e, _, i in self.spans if n == name and i == instance)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for name, start, end, parent, inst in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "instance": inst}) + "\n")
            for inst, name, value in self.counts:
                f.write(json.dumps({"count": name, "value": value, "instance": inst}) + "\n")
