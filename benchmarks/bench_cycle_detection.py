"""Experiment EX1: Example 1, cycle detection — scaling rows.

Artifacts: verdict matches the graph-theoretic reference on every graph;
rows report detection cost vs graph size and shape (who wins: detection on
cyclic graphs is near-instant, exoneration of acyclic graphs explores the
whole collapsed state space).
"""

import pytest

from repro.apps.cycle_detection import detects_cycle, has_cycle_reference
from repro.engine import Budget


def ring(n):
    return [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)]


def chain(n):
    return [(f"v{i}", f"v{i + 1}") for i in range(n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ring_detection(benchmark, n):
    edges = ring(n)

    def verify():
        got = detects_cycle(edges)
        assert got == has_cycle_reference(edges) is True
        return got

    assert benchmark(verify)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_exoneration(benchmark, n):
    edges = chain(n)

    def verify():
        got = detects_cycle(edges, budget=Budget(max_states=6_000))
        assert got is False
        return got

    assert benchmark(verify) is False


def test_late_cycle(benchmark):
    # cycle far from the first fed edge: tokens must propagate
    edges = chain(2) + [("v2", "v0")]

    def verify():
        return detects_cycle(edges)

    assert benchmark(verify)
