"""Each benchmark workload runs its first operation cleanly.

perfbench/workloads.py calls the engine and the certifier by module and
attribute name, and its own smoke test is outside this suite.  Running one
operation of every workload here catches a change that breaks the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_first_operation_has_no_failures(name):
    op = next(workloads.make_ops(name, 1))
    assert op.failures(op.run()) == 0
