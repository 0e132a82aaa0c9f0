"""Experiment EX2: Example 2, transaction inconsistency detection rows."""

import pytest

from repro.apps.transactions import (
    Transaction,
    detects_inconsistency,
    is_consistent_reference,
)
from repro.engine import Budget

T = Transaction

SCENARIOS = {
    "consistent_reads": [T("t1", "r", "j", "p1"), T("t2", "r", "j", "p2")],
    "ww_conflict": [T("t1", "w", "j", "p1"), T("t2", "w", "j", "p2")],
    "cross_cycle": [T("t1", "r", "j", "p1"), T("t2", "w", "j", "p2"),
                    T("t2", "r", "k", "p2"), T("t1", "w", "k", "p1")],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario(benchmark, name):
    log = SCENARIOS[name]
    expected = not is_consistent_reference(log)

    def verify():
        return detects_inconsistency(log)

    assert benchmark(verify) == expected


@pytest.mark.parametrize("n_txns", [2, 3, 4])
def test_same_partition_history_scaling(benchmark, n_txns):
    # growing serialisable same-partition histories: always consistent
    log = [T(f"t{i}", "w" if i % 2 else "r", "j", "p1")
           for i in range(n_txns)]
    assert is_consistent_reference(log)

    def verify():
        return detects_inconsistency(log, budget=Budget(max_states=60_000))

    assert benchmark(verify).is_false
