"""Experiment EX1 — Example 1, distributed cycle detection.

The process system must signal on ``o`` exactly when the digraph has a
cycle; cross-checked against the classical graph algorithm.
"""

import pytest

from repro.apps.cycle_detection import (
    build_system,
    detects_cycle,
    edge_manager,
    feeder,
    has_cycle_reference,
    prefed_system,
    simulate,
    validate_vertices,
)
from repro.core.freenames import free_names
from repro.runtime.analysis import can_reach_barb
from repro.engine import Budget

CYCLIC = [
    [("a", "a")],
    [("a", "b"), ("b", "a")],
    [("a", "b"), ("b", "c"), ("c", "a")],
    [("a", "b"), ("b", "c"), ("c", "b")],
    [("a", "b"), ("c", "a"), ("b", "c")],
    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")],
]

ACYCLIC = [
    [],
    [("a", "b")],
    [("a", "b"), ("a", "c")],
    [("a", "b"), ("c", "b")],
    [("a", "b"), ("b", "c")],
]


class TestDetection:
    @pytest.mark.parametrize("edges", CYCLIC)
    def test_cycles_detected(self, edges):
        assert has_cycle_reference(edges)
        assert detects_cycle(edges)

    @pytest.mark.parametrize("edges", ACYCLIC[:4])
    def test_acyclic_clean(self, edges):
        if edges:
            assert not has_cycle_reference(edges)
        assert not detects_cycle(edges, budget=Budget(max_states=1_500))

    def test_feeding_phase(self):
        # full system including the edge feeder on channel i
        assert detects_cycle([("a", "b"), ("b", "a")], prefed=False)

    def test_simulation_finds_cycle(self):
        # seeded random runs: at least one schedule signals
        found = any(
            simulate([("a", "b"), ("b", "a")], seed=s, max_steps=400,
                     prefed=True).observed("o")
            for s in range(8))
        assert found

    def test_simulation_never_false_positive(self):
        for s in range(5):
            tr = simulate([("a", "b"), ("b", "c")], seed=s, max_steps=150,
                          prefed=True)
            assert not tr.observed("o")


class TestComponents:
    def test_edge_manager_free_names(self):
        m = edge_manager("o", "a", "b")
        assert free_names(m) == {"o", "a", "b"}

    def test_self_loop_manager_signals_alone(self):
        # edge (a, a): the manager's own token comes straight home
        m = edge_manager("o", "a", "a")
        assert can_reach_barb(m, "o", budget=Budget(max_states=2_000))

    def test_plain_edge_manager_is_silent(self):
        m = edge_manager("o", "a", "b")
        assert not can_reach_barb(m, "o", budget=Budget(max_states=1_000))

    def test_feeder_emits_pairs(self):
        f = feeder("i", [("a", "b")])
        from repro.core.semantics import step_transitions
        [(act, cont)] = step_transitions(f)
        assert act.chan == "i" and act.objects == ("a",)

    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            validate_vertices([("i", "b")], "i", "o")
        with pytest.raises(ValueError):
            build_system([("o", "b")])

    def test_prefed_matches_fed(self):
        # both system styles give the same verdict
        edges = [("a", "b"), ("b", "a")]
        assert detects_cycle(edges, prefed=True)
        assert detects_cycle(edges, prefed=False)
