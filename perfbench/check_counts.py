"""Exact-count determinism: two traced runs on one seed repeat every counter.

The counters (nu calls, probe calls, tau calls, BoxFamily validations,
bound-table calls, trace nodes, points) are the machine-independent
evidence later performance claims rest on, so they must not drift
between runs. Compared per op, over the ops that finished within their
budget in both runs. Failures other than timeouts (CapExceeded,
RecursionError, ...) must repeat as well; whether an op near its budget
times out depends on the machine, so timeouts are not compared.

    python3 -m pytest perfbench/check_counts.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

sys.path.insert(0, str(bench.SRC))


def refusals(details) -> dict:
    """Failures by op class, timeouts left out."""
    out = {}
    for label, kinds in details["failures"].items():
        kept = {kind: n for kind, n in kinds.items() if kind != "timeout"}
        if kept:
            out[label] = kept
    return out


@pytest.mark.parametrize("workload", ["uniform_random", "twoline_extremal", "exact_oracles"])
def test_counters_repeat_exactly(workload):
    first, second = (bench.run(workload, seed=1, seconds=0, trace=True)["details"]
                     for _ in range(2))
    assert refusals(first) == refusals(second)
    both = first["op_counters"].keys() & second["op_counters"].keys()
    assert len(both) >= first["ops"] // 2
    for op_id in sorted(both):
        assert first["op_counters"][op_id] == second["op_counters"][op_id], op_id
