#!/usr/bin/env python3
"""The cubelink benchmark.

    python3 perfbench/run.py --workload plain_q13 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing needs installing.  One run measures one workload (see
``workloads.py``) in this single-threaded process and prints, as its last
line, one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics: the operations run closed
loop, one caller, for ``--seconds`` seconds; each output is checked after
its timer stops.  Set-up time is measured in fresh processes afterwards.

``--trace 1`` measures the per-layer metrics: the same inputs run three
times, each pass in a fresh process -- untraced, with spans, and with the
neighbour counter -- and the outputs of all three must be identical.

Exit status: 0 when every output was correct, 1 when some output was
wrong (the result line says ``"correct": false``), 2 when the program
cannot be imported, every operation raised, or a pass could not run (no
result line).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


def _die(message: str):
    """Stop without a result line; exit status 2."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import cubelink from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import cubelink
    except ImportError as exc:
        _die(f"cannot import cubelink from {SRC}: {exc}")
    if not os.path.abspath(cubelink.__file__).startswith(SRC + os.sep):
        _die(f"cubelink came from {cubelink.__file__}, not {SRC}")


_import_program()

from cubelink import linkage_engine  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_LAYER_CALLS = (
    "cube_core.free_direction", "path_oracle.avoid_path",
    "path_oracle.menger_disjoint_paths", "path_oracle.decide_linked",
    "path_oracle.validate_linkage", "linkage_engine.solve",
    "linkage_engine.base_solve", "certifier.certify",
)
_LAYER_BUSY = (
    "cube_core.face_vertices", "path_oracle.avoid_path",
    "path_oracle.menger_disjoint_paths", "path_oracle.decide_linked",
    "path_oracle.validate_linkage", "linkage_engine.solve",
    "linkage_engine.base_solve", "certifier.certify",
    "certifier.sample_instances",
)
PER_LAYER = {
    "cube_core.face_vertices.calls": "count",
    "cube_core.face_vertices.items": "count",
    "cube_core.neighbors.calls": "count",
    **{f"{name}.calls": "count" for name in _LAYER_CALLS},
    **{f"{name}.busy_s": "s" for name in _LAYER_BUSY},
    "path_oracle.decide_linked.nodes": "count",
    "path_oracle.decide_linked.share": "ratio",
    "linkage_engine.solve.self_s": "s",
    "certifier.self_s": "s",
    **{f"linkage_engine.step.{s}": "count" for s in tracing.STEP_LABELS + ("other",)},
    "trace.overhead_ratio": "ratio",
}

SETUP_PROBES = 11
CHILD_TIMEOUT_S = 170

# Operations per second of --seconds in a traced run.  Each of its three
# passes then runs for roughly a quarter of --seconds, untraced, on the
# 2-core machine the benchmark was sized on.
TRACE_OPS_PER_SECOND = {"plain_q13": 16, "certify_q5": 500, "oracle_q5": 200,
                        "variants_q11": 60}


# ---------------------------------------------------------------------------
# Machine-speed reference
#
# The shared host this benchmark was built on switches between a fast and a
# slow state, up to 2x apart, many times a minute, for every process alike
# (CPU time follows wall time).  A fixed piece of pure-Python work, owned by
# the benchmark, is timed between consecutive operations; each operation's
# time is scaled by REF_NOMINAL_NS / (mean of the reference times just
# before and just after it).  Times are therefore reported at the speed
# where the reference takes REF_NOMINAL_NS.  No change to the program can
# change the reference.

REF_NOMINAL_NS = 200_000


def reference_ns() -> int:
    """Wall time of a breadth-first search over Q8, in ns."""
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


# ---------------------------------------------------------------------------
# Running operations


class Tally:
    """What a sequence of operations did: latencies, units, failures, and
    the reference time around each operation."""

    def __init__(self) -> None:
        self.latencies_ns: list = []
        self.refs_ns: list = []     # per operation: mean of the refs around it
        self.attempted = 0          # units: solves, or certified instances
        self.failed = 0
        self.fingerprints: list = []
        self._last_ref: int | None = None

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9

    @property
    def speed_factor(self) -> float:
        """Median reference time over its nominal value (1.0 = nominal)."""
        return statistics.median(self.refs_ns) / REF_NOMINAL_NS

    def scaled_ns(self) -> list:
        """Each latency at reference speed."""
        return [lat * REF_NOMINAL_NS / ref
                for lat, ref in zip(self.latencies_ns, self.refs_ns)]

    def run(self, op, keep_fingerprint: bool = False) -> None:
        before = self._last_ref if self._last_ref is not None else reference_ns()
        t0 = time.perf_counter_ns()
        try:
            out = op.run()
        except Exception:  # an operation's crash is a failure, not the end of the run
            if self.failed < 3:
                traceback.print_exc()
            self.attempted += op.units
            self.failed += op.units
            return
        self.latencies_ns.append(time.perf_counter_ns() - t0)
        self._last_ref = reference_ns()
        self.refs_ns.append((before + self._last_ref) / 2)
        self.attempted += op.units
        bad = op.failures(out)
        if bad and self.failed < 3:
            print(f"perfbench: invalid output for {op}", file=sys.stderr)
        self.failed += bad
        if keep_fingerprint:
            self.fingerprints.append(op.fingerprint(out))


def _percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args) -> dict:
    """The timed run: closed loop over the seeded inputs for --seconds."""
    tally = Tally()
    deadline = time.perf_counter() + args.seconds
    for op in workloads.make_ops(args.workload, args.seed):
        tally.run(op)
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not tally.latencies_ns:
        _die("every operation failed")
    raw_ms = [ns / 1e6 for ns in tally.latencies_ns]
    lat_ms = [ns / 1e6 for ns in tally.scaled_ns()]
    done = tally.attempted - tally.failed
    metrics = {
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p99": _percentile(lat_ms, 99),
        "throughput_per_s": done / (sum(lat_ms) / 1e3),
        "setup_s": statistics.median(_setup_probe(args) for _ in range(SETUP_PROBES)),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"unscaled wall time: p50 {statistics.median(raw_ms):.4f} ms, "
          f"p99 {_percentile(raw_ms, 99):.4f} ms, max {max(raw_ms):.4f} ms, "
          f"{done / (sum(raw_ms) / 1e3):.2f} /s")
    counts = {"ops": len(tally.latencies_ns), "units": tally.attempted,
              "setup_probes": SETUP_PROBES, "speed_factor": tally.speed_factor}
    return _result(args, tally.attempted, tally.failed, metrics, END_TO_END, counts)


def _child(args, role: str, *extra: str) -> list:
    return [sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--role", role, *extra]


def _setup_probe(args) -> float:
    """Seconds from starting a fresh interpreter to its first possible timed
    operation (imports, then the first input), at reference speed."""
    ref = reference_ns()
    t0 = time.perf_counter()
    proc = subprocess.Popen(_child(args, "setup"), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        _die(f"set-up probe failed (exit {proc.returncode})")
    ref = (ref + reference_ns()) / 2
    return elapsed * REF_NOMINAL_NS / ref


# ---------------------------------------------------------------------------
# The traced run


def run_pass(args) -> None:
    """One pass of a traced run, in its own process: a fixed list of
    operations, untraced or under one trace mode; prints a JSON line."""
    ops = list(itertools.islice(workloads.make_ops(args.workload, args.seed), args.ops))
    tally = Tally()
    if args.mode == "none":
        for op in ops:
            tally.run(op, keep_fingerprint=True)
        layers = {}
    else:
        with tracing.traced(args.mode) as rec:
            for op in ops:
                tally.run(op, keep_fingerprint=True)
        if args.mode == tracing.SPANS:
            layers = rec.metrics()
            os.makedirs(OUT_DIR, exist_ok=True)
            rec.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            layers = {"cube_core.neighbors.calls": rec.neighbor_calls}
    # Times at reference speed, by one factor for the whole pass.
    speed = tally.speed_factor if tally.refs_ns else 1.0
    layers = {name: value / speed if name.endswith("_s") else value
              for name, value in layers.items()}
    digest = hashlib.sha256(repr(tally.fingerprints).encode()).hexdigest()
    print(json.dumps({"busy_s": tally.busy_s / speed, "attempted": tally.attempted,
                      "failed": tally.failed, "digest": digest, "layers": layers}))


def _run_child_pass(args, mode: str, n: int) -> dict:
    proc = subprocess.run(_child(args, "pass", "--mode", mode, "--ops", str(n)),
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        _die(f"{mode} pass failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def measure_layers(args) -> dict:
    n = TRACE_OPS_PER_SECOND[args.workload] * args.seconds
    plain = _run_child_pass(args, "none", n)
    spans = _run_child_pass(args, tracing.SPANS, n)
    counts = _run_child_pass(args, tracing.COUNTS, n)
    passes = (plain, spans, counts)
    same = all(p["digest"] == plain["digest"] for p in passes)
    if not same:
        print("perfbench: traced outputs differ from the untraced run", file=sys.stderr)
    layers = {**spans["layers"], **counts["layers"]}
    top = "certifier.certify" if layers.get("certifier.certify.calls") else "linkage_engine.solve"
    top_busy = layers.get(f"{top}.busy_s", 0.0)
    decide = layers.get("path_oracle.decide_linked.busy_s", 0.0)
    layers["path_oracle.decide_linked.share"] = decide / top_busy if top_busy else 0.0
    layers["certifier.self_s"] = layers.get("certifier.certify.self_s", 0.0)
    layers["trace.overhead_ratio"] = spans["busy_s"] / plain["busy_s"]
    metrics = {name: layers.get(name, 0) for name in PER_LAYER}
    failed = max(p["failed"] for p in passes)
    if not same:
        failed = max(failed, 1)
    print(f"decide_linked busy / {top} busy = "
          f"{metrics['path_oracle.decide_linked.share']:.3f}")
    inside_ns, total_ns = layers["trace.item_cost_ns"]
    print(f"cost of timing a generator item, subtracted from busy times: "
          f"{inside_ns:.0f} ns inside its span, {total_ns:.0f} ns in all")
    return _result(args, plain["attempted"], failed, metrics, PER_LAYER,
                   {"ops": n, "units": plain["attempted"], "passes": len(passes)})


# ---------------------------------------------------------------------------
# Output


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine_note(args, counts: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": counts,
        "self_check": linkage_engine.SELF_CHECK,
    }


def _result(args, attempted: int, failed: int, metrics: dict, spec: dict,
            counts: dict) -> dict:
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {spec[name]}")
    ratio = failed / attempted if attempted else 1.0
    print(f"{'failed_ratio':<40} {ratio:>14.6g} ratio ({failed} of {attempted})")
    print("machine " + json.dumps(_machine_note(args, counts), sort_keys=True))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": spec[name]} for name in spec},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Run one cubelink benchmark workload.")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "pass"), default="main",
                   help=argparse.SUPPRESS)
    p.add_argument("--mode", choices=("none", tracing.SPANS, tracing.COUNTS),
                   default="none", help=argparse.SUPPRESS)
    p.add_argument("--ops", type=int, default=0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "setup":
        next(workloads.make_ops(args.workload, args.seed))
        print("ready", flush=True)
        return 0
    if args.role == "pass":
        run_pass(args)
        return 0
    result = measure_layers(args) if args.trace else measure(args)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
