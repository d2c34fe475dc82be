"""Smoke test of the benchmark itself (not part of the program's test suite).

    python3 -m pytest perfbench -q

Runs every workload at a tiny size, checks the result line against
BENCHMARK.json, and checks that the correctness gate counts bad outputs.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*argv: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _first(workload: str, seed: int, n: int) -> list:
    return list(itertools.islice(workloads.make_ops(workload, seed), n))


def test_same_seed_gives_same_inputs():
    for workload in workloads.WORKLOADS:
        assert _first(workload, 5, 6) == _first(workload, 5, 6)
        assert _first(workload, 5, 6) != _first(workload, 6, 6)


@dataclasses.dataclass(frozen=True)
class _DropOneVertex:
    """An operation whose output loses one inner vertex of its longest path."""

    op: workloads.SolveOp
    units = 1

    def run(self):
        result = self.op.run()
        paths = [list(p) for p in result.linkage]
        longest = max(range(len(paths)), key=lambda i: len(paths[i]))
        del paths[longest][1]
        return dataclasses.replace(result, linkage=paths)

    def failures(self, result) -> int:
        return self.op.failures(result)


@pytest.mark.parametrize("workload", ["plain_q13", "variants_q11"])
def test_gate_counts_a_corrupted_linkage(workload):
    op = _first(workload, 1, 1)[0]
    tally = run.Tally()
    tally.run(op)
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.run(_DropOneVertex(op))
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("workload", ["certify_q5", "oracle_q5"])
def test_gate_counts_a_failed_certify_instance(workload):
    op = _first(workload, 1, 1)[0]
    report = op.run()
    assert op.failures(report) == 0
    report.successes -= 1
    report.failures.append({"index": 0, "reason": "injected"})
    assert op.failures(report) == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "plain_q13", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
