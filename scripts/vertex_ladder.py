"""Microseconds per emitted vertex of maximal plain solves above the
dimension cap: the engine's cost measured against its output size.

    python3 scripts/vertex_ladder.py [--src [NAME=]DIR ...]

Each --src is the src directory of a checkout (default: this one's),
reported under NAME (default: DIR), so two trees can be compared in one
run.  On every rung d of DIMS, with cube_core.MAX_DIM patched to d, the
instances are sample_instances("cube:d", (d + 1) // 2, n, SEED) with
n = SAMPLES[d].
A fresh process per tree, rung and repeat solves them once (warming the
engine's caches and validating every linkage), then times PASSES passes;
its value is the median pass time over the vertices one pass emits.  Each
pass is also scaled to reference speed, as perfbench/run.py scales each
operation: by REF_NOMINAL_NS over the mean of a fixed breadth-first search
over Q8 timed just before and just after the pass, so a host whose speed
swings between passes reads the same.  The trees alternate which runs
first over REPEATS repeats, and the report gives, per tree and rung, the
median over repeats of the raw and of the scaled value, each one's ratio
to the tree's value on the first rung, and the machine's cores and Python
version.  It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

SEED = 7
SAMPLES = {64: 10, 128: 5, 256: 3, 384: 2, 448: 2}
DIMS = tuple(SAMPLES)
PASSES = 3
REPEATS = 5
REF_NOMINAL_NS = 200_000


def reference_ns() -> int:
    """Wall time of a breadth-first search over Q8, in ns: pure-Python work
    that no change to the engine can change."""
    t0 = time.perf_counter_ns()
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for i in range(8):
            w = v ^ (1 << i)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return time.perf_counter_ns() - t0


def measure(d: int) -> dict:
    """One process's reading on rung d (run with the tree's src on the
    path)."""
    from cubelink import cube_core
    from cubelink.certifier import sample_instances
    from cubelink.linkage_engine import solve_linkage
    from cubelink.path_oracle import validate_linkage

    cube_core.MAX_DIM = max(cube_core.MAX_DIM, d)
    pairings = [inst.pairing for inst in
                sample_instances(f"cube:{d}", (d + 1) // 2, SAMPLES[d], SEED)]
    vertices = 0
    for Y in pairings:
        res = solve_linkage(d, Y)
        report = validate_linkage(res.host, Y, res.linkage)
        if not report:
            raise SystemExit(f"invalid linkage in Q{d}: {report.message}")
        vertices += sum(map(len, res.linkage))
    times, scaled = [], []
    for _ in range(PASSES):
        before = reference_ns()
        start = time.perf_counter_ns()
        for Y in pairings:
            solve_linkage(d, Y)
        elapsed = time.perf_counter_ns() - start
        times.append(elapsed)
        scaled.append(elapsed * REF_NOMINAL_NS / ((before + reference_ns()) / 2))
    pass_ns, scaled_ns = statistics.median(times), statistics.median(scaled)
    return {"us_per_vertex": round(pass_ns / vertices / 1e3, 3),
            "scaled_us_per_vertex": round(scaled_ns / vertices / 1e3, 3),
            "ms_per_solve": round(pass_ns / len(pairings) / 1e6, 2),
            "vertices_per_solve": vertices // len(pairings)}


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", nargs="+",
                    default=[str(Path(__file__).resolve().parents[1] / "src")])
    ap.add_argument("--worker", type=int, metavar="D", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args.worker)))
        return 0
    trees = dict(x.split("=", 1) if "=" in x else (x, x) for x in args.src)
    readings: dict = {(name, d): [] for name in trees for d in DIMS}
    for r in range(REPEATS):
        for d in DIMS:
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for name in order:
                env = dict(os.environ, PYTHONPATH=trees[name])
                out = subprocess.run(
                    [sys.executable, __file__, "--worker", str(d)],
                    env=env, check=True, capture_output=True, text=True).stdout
                readings[name, d].append(json.loads(out))
    rungs = []
    for d in DIMS:
        row: dict = {"d": d, "k": (d + 1) // 2, "samples": SAMPLES[d]}
        for name in trees:
            runs = readings[name, d]
            us = statistics.median(x["us_per_vertex"] for x in runs)
            scaled = statistics.median(x["scaled_us_per_vertex"] for x in runs)
            first = rungs[0][name] if rungs else {"us_per_vertex": us,
                                                  "scaled_us_per_vertex": scaled}
            row[name] = {
                "us_per_vertex": us,
                f"over_q{DIMS[0]}": round(us / first["us_per_vertex"], 3),
                "scaled_us_per_vertex": scaled,
                f"scaled_over_q{DIMS[0]}": round(scaled / first["scaled_us_per_vertex"], 3),
                "ms_per_solve": statistics.median(x["ms_per_solve"] for x in runs),
                "vertices_per_solve": runs[0]["vertices_per_solve"],
                "runs_us_per_vertex": [x["us_per_vertex"] for x in runs],
                "runs_scaled_us_per_vertex": [x["scaled_us_per_vertex"] for x in runs],
            }
        rungs.append(row)
    report = {
        "command": "python3 scripts/vertex_ladder.py " + " ".join(argv or sys.argv[1:]),
        "seed": SEED, "passes": PASSES, "repeats": REPEATS,
        "ref_nominal_ns": REF_NOMINAL_NS,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "rungs": rungs,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
