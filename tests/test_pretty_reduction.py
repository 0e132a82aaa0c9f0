"""Edge-case tests for the printer and the observables module."""

import pytest
from hypothesis import given

from repro.core.parser import parse
from repro.core.pretty import pretty
from repro.core.reduction import (
    StateSpaceExceeded,
    barbs,
    has_barb,
    tau_successors,
)
from repro.engine import Budget
from repro.lts.weak import (
    has_weak_barb,
    reachable_by_steps,
    weak_barbs,
    weak_step_barbs,
)
from tests.strategies import processes1


class TestPretty:
    @pytest.mark.parametrize("text,expected", [
        ("0", "0"),
        ("tau", "tau"),
        ("tau.tau", "tau.tau"),
        ("a?", "a?"),
        ("a!", "a!"),
        ("a<b, c>.d?", "a<b, c>.d?"),
        ("a! + b! | c!", "a! + b! | c!"),
        ("(a! | b!) + c!", "(a! | b!) + c!"),
        ("a!.(b! + c!)", "a!.(b! + c!)"),
        ("nu x (x! + a!)", "nu x (x! + a!)"),
        ("[a=b]{0}{0}", "[a=b]{0}{0}"),
        ("rec X(x := a). x?.X<x>", "(rec X(x). x?.X<x>)<a>"),
    ])
    def test_rendering(self, text, expected):
        assert pretty(parse(text)) == expected

    def test_nested_sums_parenthesised(self):
        from repro.core.syntax import NIL, Output, Sum
        left_nested = Sum(Sum(Output("a", (), NIL), Output("b", (), NIL)),
                          Output("c", (), NIL))
        assert pretty(left_nested) == "(a! + b!) + c!"
        assert parse(pretty(left_nested)) == left_nested

    @given(processes1)
    def test_str_matches_pretty(self, p):
        assert str(p) == pretty(p)


class TestObservables:
    def test_barbs_through_structure(self):
        assert barbs(parse("nu x (x<a> | a!)")) == {"a"}
        assert barbs(parse("[u=u]{b<c>}{d!}")) == {"b"}
        assert barbs(parse("rec X(). tau.X")) == frozenset()

    def test_has_barb(self):
        assert has_barb(parse("a! + b!"), "a")
        assert not has_barb(parse("tau.a!"), "a")

    def test_weak_barbs_follow_taus_only(self):
        p = parse("tau.a! | b!.c!")
        assert weak_barbs(p) == {"a", "b"}          # c needs the b output
        assert weak_step_barbs(p) == {"a", "b", "c"}

    def test_has_weak_barb(self):
        assert has_weak_barb(parse("tau.tau.a!"), "a")
        assert not has_weak_barb(parse("b!.a!"), "a")

    def test_tau_successors(self):
        assert len(tau_successors(parse("tau.a! + tau.b!"))) == 2
        assert tau_successors(parse("a!")) == ()

    def test_reachable_by_steps_bounded(self):
        grower = parse("rec X(x := a). nu y x<y>.(y? | X<x>)")
        with pytest.raises(StateSpaceExceeded):
            list(reachable_by_steps(grower, budget=Budget(max_states=5)))

    def test_reachable_by_steps_content(self):
        states = list(reachable_by_steps(parse("a!.b!"), budget=Budget(max_states=10)))
        assert len(states) == 3


@given(processes1)
def test_barbs_subset_of_free_names(p):
    from repro.core.freenames import free_names
    assert barbs(p) <= free_names(p)


@given(processes1)
def test_weak_barbs_contain_strong(p):
    assert barbs(p) <= weak_barbs(p) <= weak_step_barbs(p)
