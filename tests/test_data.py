"""Tests for the broadcast data encodings."""

import pytest

from repro.calculi.data import (
    and_gate,
    bool_at,
    cell_at,
    false_at,
    if_then_else,
    not_gate,
    pair_at,
    read_cell,
    true_at,
    unpair,
    write_cell,
)
from repro.core.builder import inp, out, par
from repro.runtime.analysis import can_reach_barb
from repro.engine import Budget


def reaches(system, chan, budget=30_000):
    from repro.core.reduction import StateSpaceExceeded
    try:
        return can_reach_barb(system, chan, budget=Budget(max_states=budget),
                              collapse_duplicates=True)
    except StateSpaceExceeded:
        return False


class TestBooleans:
    @pytest.mark.parametrize("value,expected", [(True, "yes"), (False, "no")])
    def test_branching(self, value, expected):
        system = par(bool_at("b", value),
                     if_then_else("b", out("yes"), out("no")))
        assert reaches(system, expected)
        assert not reaches(system, "no" if expected == "yes" else "yes",
                           budget=4_000)

    def test_persistent(self):
        # two independent readers both get an answer
        system = par(true_at("b"),
                     if_then_else("b", out("r1"), out("w1")),
                     if_then_else("b", out("r2"), out("w2")))
        assert reaches(system, "r1")
        assert reaches(system, "r2")

    def test_replicated_copies_coherent(self):
        system = par(true_at("b"), true_at("b"),
                     if_then_else("b", out("yes"), out("no")))
        assert reaches(system, "yes")
        assert not reaches(system, "no", budget=5_000)


class TestGates:
    def test_not(self):
        system = par(true_at("a"), not_gate("a", "na"),
                     if_then_else("na", out("t"), out("f")))
        assert reaches(system, "f")
        assert not reaches(system, "t", budget=8_000)

    @pytest.mark.parametrize("a,b,expected", [
        (True, True, "t"), (True, False, "f"), (False, True, "f"),
        (False, False, "f")])
    def test_and(self, a, b, expected):
        system = par(bool_at("a", a), bool_at("b", b),
                     and_gate("a", "b", "c"),
                     if_then_else("c", out("t"), out("f")))
        assert reaches(system, expected, budget=60_000)


class TestPairs:
    def test_projections(self):
        system = par(pair_at("p", "u", "v"),
                     unpair("p", ("x", "y"), out("first", "x",
                                                 cont=out("second", "y"))))
        assert reaches(system, "first")
        assert reaches(system, "second")

    def test_components_delivered(self):
        # checking the payloads via a matcher
        from repro.core.builder import match_eq
        system = par(pair_at("p", "u", "v"),
                     unpair("p", ("x", "y"),
                            match_eq("x", "u",
                                     match_eq("y", "v", out("good")))))
        assert reaches(system, "good")


class TestCells:
    def test_read_initial(self):
        from repro.core.builder import match_eq
        system = par(cell_at("c", "v0"),
                     read_cell("c", "x", match_eq("x", "v0", out("ok"))))
        assert reaches(system, "ok")

    def test_write_then_read(self):
        from repro.core.builder import match_eq
        system = par(cell_at("c", "v0"),
                     write_cell("c", "v1",
                                read_cell("c", "x",
                                          match_eq("x", "v1", out("ok")))))
        assert reaches(system, "ok")
