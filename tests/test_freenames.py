"""Tests for free/bound names and guardedness (Section 2.1 conventions)."""

import pytest
from hypothesis import given

from repro.core.builder import call, inp, nu, out, par, tau
from repro.core.freenames import (
    NotAProcess,
    all_names,
    bound_names,
    check_guarded,
    free_idents,
    free_names,
    is_closed,
    validate,
)
from repro.core.parser import parse
from repro.core.syntax import NIL, Ident, Input, Match, Output, Rec, Restrict
from tests.strategies import processes1


class TestFreeNames:
    def test_nil(self):
        assert free_names(NIL) == frozenset()

    def test_output_all_free(self):
        assert free_names(parse("a<b, c>.d!")) == {"a", "b", "c", "d"}

    def test_input_binds_params(self):
        p = parse("a(x).x<b>")
        assert free_names(p) == {"a", "b"}
        assert bound_names(p) == {"x"}

    def test_restriction_binds(self):
        p = parse("nu x x<a>")
        assert free_names(p) == {"a"}
        assert bound_names(p) == {"x"}

    def test_match_names_free(self):
        p = Match("u", "v", NIL, NIL)
        assert free_names(p) == {"u", "v"}

    def test_shadowing(self):
        # inner binder shadows: outer occurrence free, inner bound
        p = parse("a(x).(x! | nu x x!)")
        assert free_names(p) == {"a"}
        assert bound_names(p) == {"x"}

    def test_rec_params_bind_body(self):
        p = parse("rec X(x := a). x?.X<x>")
        assert free_names(p) == {"a"}
        assert "x" in bound_names(p)

    def test_ident_args_free(self):
        assert free_names(Ident("X", ("a", "b"))) == {"a", "b"}

    def test_all_names(self):
        p = parse("nu x a<b>")
        assert all_names(p) == {"a", "b", "x"}


class TestIdentifiers:
    def test_free_idents(self):
        assert free_idents(call("X", "a")) == {"X"}
        assert free_idents(parse("rec X(x := a). x?.X<x>")) == frozenset()

    def test_nested_rec_shadows(self):
        inner = Rec("X", ("y",), Input("y", (), Ident("X", ("y",))), ("b",))
        outer = Rec("X", ("x",), Input("x", (), inner), ("a",))
        assert free_idents(outer) == frozenset()

    def test_is_closed(self):
        assert is_closed(parse("a!.b?"))
        assert not is_closed(call("Loop", "a"))


class TestGuardedness:
    def test_guarded_ok(self):
        check_guarded(parse("rec X(x := a). x?.X<x>"))

    def test_unguarded_rejected(self):
        bad = Rec("X", ("x",), Ident("X", ("x",)), ("a",))
        with pytest.raises(ValueError):
            check_guarded(bad)

    def test_unguarded_under_sum_rejected(self):
        bad = Rec("X", ("x",), Ident("X", ("x",)) + tau(), ("a",))
        with pytest.raises(ValueError):
            check_guarded(bad)

    def test_unguarded_under_restriction_rejected(self):
        bad = Rec("X", ("x",), nu("y", Ident("X", ("x",))), ("a",))
        with pytest.raises(ValueError):
            check_guarded(bad)

    def test_other_ident_not_flagged(self):
        # Only the identifier bound by the rec must be guarded in its body.
        open_term = Rec("X", ("x",), Input("x", (), Ident("X", ("x",))) | Ident("Y", ()), ("a",))
        check_guarded(open_term)


class TestValidate:
    """A process in the paper's sense: closed and guarded."""

    def test_closed_guarded_term_passes(self):
        validate(parse("rec X(x := a). x?.X<x> | b!"))

    def test_open_term_rejected(self):
        with pytest.raises(NotAProcess, match="not a closed process"):
            validate(parse("X<a>"))
        with pytest.raises(NotAProcess, match="'Y'"):
            validate(Rec("X", ("x",), Input("x", (), Ident("Y", ())), ("a",)))

    def test_unguarded_term_rejected(self):
        with pytest.raises(NotAProcess, match="unguarded"):
            validate(parse("rec X(). X"))

    def test_not_a_process_is_a_value_error(self):
        assert issubclass(NotAProcess, ValueError)


@given(processes1)
def test_fn_bn_partition_names(p):
    """fn and bn cover n(p); fn is disjoint from nothing in general but
    both are subsets of all names occurring syntactically."""
    assert free_names(p) <= all_names(p)
    assert bound_names(p) <= all_names(p)


@given(processes1)
def test_restriction_removes_free_name(p):
    assert "a" not in free_names(Restrict("a", p))
