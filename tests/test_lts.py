"""Tests for the explicit LTS layer: graphs, partition refinement,
saturation (used by the reduction-based checkers)."""

import pytest

from repro.core.names import NameUniverse
from repro.core.parser import parse
from repro.core.reduction import StateSpaceExceeded
from repro.lts.graph import build_full_lts, build_step_lts, canonical_output_label
from repro.lts.partition import coarsest_partition
from repro.lts.weak import reachability_closure, weak_keys
from repro.engine import Budget


class TestStepLts:
    def test_linear_system(self):
        lts, root = build_step_lts(parse("a!.b!.c!"))
        assert lts.n_states == 4
        assert lts.n_edges == 3
        assert root == 0

    def test_branching(self):
        lts, _ = build_step_lts(parse("a! + b!"))
        # one source, nil target (a! and b! both lead to 0)
        assert lts.n_states == 2
        assert lts.n_edges == 2

    def test_cycle_folded(self):
        lts, root = build_step_lts(parse("rec X(). tau.X"))
        assert lts.n_states == 1
        assert lts.successors(root, tau_only=True) == [root]

    def test_barbs_of(self):
        lts, root = build_step_lts(parse("a<b> + tau.c!"))
        assert lts.barbs_of(root) == {"a"}

    def test_bound(self):
        grower = parse("rec X(x := a). nu y x<y>.(X<x> | y?)")
        with pytest.raises(StateSpaceExceeded):
            build_step_lts(grower, budget=Budget(max_states=10),
                           close_binders=False)


class TestFullLts:
    def test_inputs_present(self):
        p = parse("a(x).x!")
        lts, root = build_full_lts(p, NameUniverse(frozenset({"a"}), 1))
        labels = {str(a) for a, _ in lts.edges[root]}
        assert labels == {"a(a)", "a(_f0)"}

    def test_bound_output_label_canonical(self):
        from repro.core.actions import OutputAction
        act = OutputAction("a", ("x", "b", "x"), ("x",))
        lab = canonical_output_label(act)
        assert lab.objects == ("_e0", "b", "_e0")
        assert lab.binders == ("_e0",)
        # free outputs unchanged
        free = OutputAction("a", ("b",), ())
        assert canonical_output_label(free) is free


class TestPartition:
    def test_two_blocks(self):
        # 0 -> 1, 2 -> 3; 1 barb {x}, 3 barb {y}
        succ = [frozenset({1}), frozenset(), frozenset({3}), frozenset()]
        keys = [frozenset(), frozenset({"x"}), frozenset(), frozenset({"y"})]
        block = coarsest_partition(succ, keys)
        assert block[0] != block[2]
        assert block[1] != block[3]

    def test_bisimilar_states_merge(self):
        # two states both stepping to the same barb
        succ = [frozenset({2}), frozenset({2}), frozenset()]
        keys = [frozenset(), frozenset(), frozenset({"x"})]
        block = coarsest_partition(succ, keys)
        assert block[0] == block[1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            coarsest_partition([frozenset()], [1, 2])


class TestWeak:
    def test_closure_reflexive_transitive(self):
        succ = [frozenset({1}), frozenset({2}), frozenset()]
        closure = reachability_closure(succ)
        assert closure[0] == {0, 1, 2}
        assert closure[2] == {2}

    def test_closure_cycle(self):
        succ = [frozenset({1}), frozenset({0})]
        closure = reachability_closure(succ)
        assert closure[0] == closure[1] == {0, 1}

    def test_weak_keys_union(self):
        succ = [frozenset({1}), frozenset()]
        closure = reachability_closure(succ)
        keys = weak_keys(closure, [frozenset({"a"}), frozenset({"b"})])
        assert keys[0] == {"a", "b"}
        assert keys[1] == {"b"}
