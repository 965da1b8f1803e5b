"""One round of each benchmark workload runs without a failed operation and
passes the benchmark's own answer checks, so that a library change which
breaks the benchmark's calls or answers fails here.

``random-corpus``'s check runs the enumeration oracle and an independent
MILP on its 101 instances; with one round that takes about a second.
``operator-sweep`` reuses a matching's memo entries across its scenarios.
"""

import sys
from pathlib import Path

import pytest

# worker.py imports its sibling modules by their bare names
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
from spans import NullTracer  # noqa: E402


@pytest.mark.parametrize("name", ["sioux-falls", "random-corpus",
                                  "operator-sweep"])
def test_one_round_runs_and_checks(tmp_path, name):
    workload = worker.WORKLOADS[name](0, tmp_path)
    ops, unit_ms = worker.Ops(), []
    units = workload.run_round(NullTracer(), ops, unit_ms)
    assert ops.attempted > 0 and unit_ms
    assert (ops.failed, ops.errors) == (0, [])
    workload.check(units)
