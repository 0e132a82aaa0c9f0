"""Tests for the Python-side construction DSL."""

import pytest

from repro.core.builder import (
    bang_like,
    call,
    choice,
    define,
    inp,
    match_eq,
    match_ne,
    nu,
    out,
    par,
    replicate_input,
    tau,
)
from repro.core.freenames import free_names, is_closed
from repro.core.parser import parse
from repro.runtime.analysis import can_reach_barb
from repro.core.semantics import step_transitions
from repro.core.syntax import NIL, Match
from repro.engine import Budget


class TestCombinators:
    def test_empty_par_and_choice(self):
        assert par() is NIL
        assert choice() is NIL

    def test_single_element(self):
        p = out("a")
        assert par(p) is p
        assert choice(p) is p

    def test_nesting_matches_parser(self):
        assert par(out("a"), out("b"), out("c")) == parse("a! | b! | c!")
        assert choice(tau(), out("a")) == parse("tau + a!")

    def test_nu_multi(self):
        assert nu(("x", "y"), out("x", "y")) == parse("nu x nu y x<y>")

    def test_match_sugar(self):
        assert match_ne("a", "b", out("c")) == Match("a", "b", NIL, out("c"))

    def test_inp_string_param(self):
        assert inp("a", "x", out("x")) == parse("a(x).x!")


class TestDefine:
    def test_basic(self):
        counter = define("C", ("t",), lambda t: inp(t, (), call("C", t)))
        p = counter("tick")
        assert is_closed(p)
        assert free_names(p) == {"tick"}

    def test_arity_check(self):
        counter = define("C", ("t",), lambda t: inp(t, (), call("C", t)))
        with pytest.raises(ValueError):
            counter("a", "b")

    def test_free_name_check(self):
        with pytest.raises(ValueError, match="free names"):
            define("C", ("t",), lambda t: out("leak"))

    def test_constants_escape(self):
        d = define("C", ("t",), lambda t: out("glob", cont=call("C", t)),
                   constants=("glob",))
        assert free_names(d("x")) == {"x", "glob"}

    def test_foreign_ident_check(self):
        with pytest.raises(ValueError, match="identifiers"):
            define("C", ("t",), lambda t: call("Other", t))

    def test_bang_like(self):
        server = bang_like("S", ("a",),
                           lambda a, loop: inp(a, (), par(out(a), loop)))
        p = server("ping")
        assert not is_closed(p) is False  # closed


class TestReplication:
    def test_serves_repeatedly(self):
        service = replicate_input("req", ("x",), out("resp", "x"))
        system = par(service, out("req", "v1", cont=out("req", "v2")))
        assert can_reach_barb(system, "resp", budget=Budget(max_states=3_000),
                              collapse_duplicates=True)

    def test_one_broadcast_many_copies_is_one_reception(self):
        # replication spawns ONE copy per reception — and a broadcast is
        # one reception even with the replicated server alone
        service = replicate_input("req", (), out("done"))
        system = par(service, out("req"))
        [(act, target)] = [(a, t) for a, t in step_transitions(system)
                           if a.is_output]
        # after the broadcast: exactly one spawned body can emit `done`
        done_moves = [a for a, _ in step_transitions(target)
                      if a.is_output and a.subject == "done"]
        assert len(done_moves) == 1

    def test_fresh_identifiers(self):
        a = replicate_input("c", (), out("x"))
        b = replicate_input("c", (), out("x"))
        assert a.ident != b.ident  # no accidental capture across calls

    def test_constants_pass_through(self):
        service = replicate_input("req", ("x",), out("log", "x"),
                                  constants=("log",))
        assert "log" in free_names(service)
