"""Per-layer tracing wired from outside the program.

``traced(mode)`` wraps the public functions of each layer where their
callers look them up: every ``cubelink`` module whose namespace holds the
function object gets the wrapper (``linkage_engine`` and ``certifier``
import most of them by name), and ``CubeGraph.neighbors`` is counted at the
class.  The program's own files are not changed.

Two modes, run in separate processes:

  spans   one span per wrapped call: name, parent, start, end, busy time.
          Generators (``face_vertices``, ``sample_instances``) are timed
          over their iteration, not their call.  Spans stay in memory and
          are written out when the run ends.
  counts  only ``CubeGraph.neighbors`` calls, which are too frequent to
          wrap without distorting the busy times of the spans mode.

A span's self time is its busy time minus the busy time of its direct
children; the code is single-threaded, so children never overlap.

Timing a generator item by item costs a few hundred ns per item, which is
not small next to ``face_vertices``'s own work per vertex.  ``metrics()``
measures that cost on an empty generator and subtracts it: the part inside
the timer from the generator's span, the whole of it from every enclosing
span.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

from cubelink import certifier, cube_core, linkage_engine, path_oracle

SPANS = "spans"
COUNTS = "counts"

# Every label the engine writes into SolveResult.trace, minus its "Q<d>:"
# prefix.  Anything else is counted under "other".
STEP_LABELS = (
    "trivial_pair", "base", "projection", "even_menger",
    "scenario1", "scenario2", "scenario3",
    "strong_extra_pair", "strong_projection",
    "link_bfs", "link_base", "link_case1", "link_detour", "link_case2",
)

_SOLVE = "linkage_engine.solve"
_CERTIFY = "certifier.certify"
_DECIDE = "path_oracle.decide_linked"

# (module, attribute, span name, is a generator)
_TARGETS = (
    (cube_core, "face_vertices", "cube_core.face_vertices", True),
    (cube_core, "free_direction", "cube_core.free_direction", False),
    (path_oracle, "avoid_path", "path_oracle.avoid_path", False),
    (path_oracle, "menger_disjoint_paths", "path_oracle.menger_disjoint_paths", False),
    (path_oracle, "decide_linked", _DECIDE, False),
    (path_oracle, "validate_linkage", "path_oracle.validate_linkage", False),
    (linkage_engine, "solve_linkage", _SOLVE, False),
    (linkage_engine, "solve_avoiding", _SOLVE, False),
    (linkage_engine, "solve_strong", _SOLVE, False),
    (linkage_engine, "solve_link", _SOLVE, False),
    (linkage_engine, "base_solve", "linkage_engine.base_solve", False),
    (certifier, "certify", _CERTIFY, False),
    (certifier, "sample_instances", "certifier.sample_instances", True),
)


class Recorder:
    """Spans of one traced run, kept in memory.

    A span row is [name, parent index, start ns, end ns, busy ns, items].
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.nodes = 0
        self.steps: Counter = Counter()
        self.neighbor_calls = 0

    def open(self, name: str, start: int) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, start, start, 0, 0])
        return len(self.spans) - 1

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap_call(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = self.inside(name)
            start = time.perf_counter_ns()
            sid = self.open(name, start)
            self.stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                end = time.perf_counter_ns()
                row = self.spans[sid]
                row[3] = end
                row[4] = end - start
            self.observe(name, out, nested)
            return out
        return wrapper

    def wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name, time.perf_counter_ns())
            return self._iterate(sid, fn(*args, **kwargs))
        return wrapper

    def _iterate(self, sid: int, inner):
        row = self.spans[sid]
        try:
            while True:
                self.stack.append(sid)
                t0 = time.perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = time.perf_counter_ns()
                    self.stack.pop()
                    row[3] = t1
                    row[4] += t1 - t0
                row[5] += 1
                yield item
        finally:
            inner.close()

    def item_cost_ns(self, n: int = 50_000, repeats: int = 5) -> tuple:
        """Per-item cost of ``_iterate`` on an empty generator of n items:
        (ns inside the span's timer, ns in total), medians of ``repeats``."""
        inside, total = [], []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for _item in _empty(n):
                pass
            bare = time.perf_counter_ns() - t0
            probe = Recorder()
            row = probe.spans[probe.open("probe", 0)]
            t0 = time.perf_counter_ns()
            for _item in probe._iterate(0, _empty(n)):
                pass
            wrapped = time.perf_counter_ns() - t0
            inside.append(max(0.0, (row[4] - bare) / n))
            total.append(max(0.0, (wrapped - bare) / n))
        return statistics.median(inside), statistics.median(total)

    def observe(self, name: str, out, nested: bool) -> None:
        if name == _DECIDE:
            self.nodes += out.nodes_used
        elif name == _SOLVE and not nested:
            for label in out.trace:
                step = label.split(":", 1)[-1]
                self.steps[step if step in STEP_LABELS else "other"] += 1

    def metrics(self) -> dict:
        """Per-layer totals: calls, busy and self seconds, items.  Busy
        times are net of the cost of timing generator items."""
        inside_ns, total_ns = self.item_cost_ns()
        busy_of = [row[4] for row in self.spans]
        for i, (_name, parent, _s, _e, _busy, n) in enumerate(self.spans):
            if n:
                busy_of[i] -= n * inside_ns
                while parent >= 0:
                    busy_of[parent] -= n * total_ns
                    parent = self.spans[parent][1]
        child_busy = [0] * len(self.spans)
        for i, (name, parent, _s, _e, _busy, _n) in enumerate(self.spans):
            if parent >= 0:
                child_busy[parent] += busy_of[i]
        calls: Counter = Counter()
        busy_ns: Counter = Counter()
        self_ns: Counter = Counter()
        items: Counter = Counter()
        for i, (name, parent, _s, _e, _busy, n) in enumerate(self.spans):
            busy = busy_of[i]
            self_ns[name] += busy - child_busy[i]
            items[name] += n
            # A call nested in a span of its own layer (solve_avoiding
            # delegating to solve_linkage) is part of the outer call.
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                calls[name] += 1
                busy_ns[name] += busy
        out = {}
        for name in sorted(calls):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy_ns[name] / 1e9
            out[f"{name}.self_s"] = self_ns[name] / 1e9
            out[f"{name}.items"] = items[name]
        out[f"{_DECIDE}.nodes"] = self.nodes
        out["trace.item_cost_ns"] = [inside_ns, total_ns]
        for step in STEP_LABELS + ("other",):
            out[f"linkage_engine.step.{step}"] = self.steps[step]
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, parent index, start/end ns, busy ns, items."""
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(row, separators=(",", ":")))
                fh.write("\n")


def _empty(n: int):
    yield from range(n)


def _cubelink_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cubelink" or name.startswith("cubelink."))]


@contextmanager
def traced(mode: str):
    """Wrap the program's layers for the duration of the block; yields the
    Recorder that collects what the wrappers see."""
    rec = Recorder()
    patches = []   # (namespace object, attribute, original)
    if mode == SPANS:
        for module, attr, name, is_gen in _TARGETS:
            original = getattr(module, attr)
            wrapper = (rec.wrap_generator if is_gen else rec.wrap_call)(original, name)
            for mod in _cubelink_modules():
                if getattr(mod, attr, None) is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    elif mode == COUNTS:
        original = cube_core.CubeGraph.neighbors

        def neighbors(graph, v):
            rec.neighbor_calls += 1
            return original(graph, v)

        patches.append((cube_core.CubeGraph, "neighbors", original))
        cube_core.CubeGraph.neighbors = neighbors
    else:
        raise ValueError(f"unknown trace mode {mode!r}")
    try:
        yield rec
    finally:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)
