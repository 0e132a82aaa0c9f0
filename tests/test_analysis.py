"""Tests for the reachability analyses (runtime.analysis)."""

import pytest

from repro.apps.cycle_detection import prefed_system
from repro.core.freenames import free_names
from repro.core.parser import parse
from repro.core.reduction import StateSpaceExceeded, barbs
from repro.lts.graph import build_step_lts
from repro.runtime.analysis import (
    can_diverge,
    can_reach_barb,
    eventually_always,
    find_quiescent,
    invariant_holds,
    reachable_states,
)
from repro.engine import Budget


class TestReachable:
    def test_linear(self):
        states = reachable_states(parse("a!.b!"))
        assert len(states) == 3

    def test_collapse_flag(self):
        p = parse("a! | a!")
        assert len(reachable_states(p, collapse=True)) \
            <= len(reachable_states(p, collapse=False))

    def test_budget(self):
        with pytest.raises(StateSpaceExceeded):
            reachable_states(parse("tau.tau.tau.tau.0"),
                             budget=Budget(max_states=2))


    def test_budget_partial_is_prefix(self):
        # a trip hands back the BFS prefix, in discovery order
        star = parse("a<v> | " + " | ".join(f"a(x{i}).r{i}<x{i}>"
                                            for i in range(6)))
        with pytest.raises(StateSpaceExceeded) as ei:
            reachable_states(star, budget=Budget(max_states=17))
        assert ei.value.partial == reachable_states(star)[:17]


class TestQuiescence:
    def test_terminating(self):
        [q] = find_quiescent(parse("a!.b!"))
        assert not barbs(q)

    def test_deadlock_shapes(self):
        # a receiver with no sender is quiescent immediately
        quiescent = find_quiescent(parse("a(x).x!"))
        assert len(quiescent) == 1

    def test_nonterminating_has_none(self):
        assert find_quiescent(parse("rec X(). tau.X")) == []


class TestDivergence:
    def test_tau_loop(self):
        assert can_diverge(parse("rec X(). tau.X"))

    def test_finite_system(self):
        assert not can_diverge(parse("tau.tau.a!"))

    def test_broadcast_loop_is_not_tau_divergence(self):
        # an infinite broadcast loop is visible activity, not divergence
        assert not can_diverge(parse("rec X(). a!.X"))

    def test_internalised_loop_diverges(self):
        assert can_diverge(parse("nu a rec X(). a!.X"))

    def test_encoded_retry_protocols_diverge(self):
        # the pi-encoding's retry loops are (necessarily) divergent once
        # the session channel is internal (the retries become tau cycles)
        from repro.calculi.encodings import pi_to_bpi
        from repro.core.syntax import Restrict
        enc = Restrict("a", pi_to_bpi(parse("a<v>.done!")))
        assert can_diverge(enc, budget=Budget(max_states=2_000))


class TestInvariants:
    def test_holds(self):
        from repro.core.freenames import free_names
        p = parse("a!.b! | c?")
        assert invariant_holds(p, lambda s: free_names(s) <= {"a", "b", "c"})

    def test_counterexample(self):
        witness = []
        p = parse("a!.b!")
        ok = invariant_holds(p, lambda s: "b" not in barbs(s),
                             witness=witness)
        assert not ok and witness and "b" in barbs(witness[0])

    def test_eventually_always(self):
        # when the dust settles, nothing is left
        assert eventually_always(parse("a! | b!"),
                                 lambda s: s.size() == 1)

    def test_detector_never_false_signals(self):
        # safety of Example 1 on an acyclic graph, as an invariant
        system = prefed_system([("a", "b")])
        assert invariant_holds(system, lambda s: "o" not in barbs(s),
                               budget=Budget(max_states=3_000))


# -- one explorer: the entry points agree ------------------------------------

def _cross_terms():
    from benchmarks.helpers import broadcast_star, relay_star, token_ring
    from repro.lint.corpus import corpus
    terms = {f"broadcast_star({n})": broadcast_star(n) for n in (2, 4)}
    terms.update({f"relay_star({n})": relay_star(n) for n in (2, 3)})
    terms.update({f"token_ring({n})": token_ring(n) for n in (3, 4)})
    paper = dict(corpus())
    for name in ("apps.pubsub.network", "apps.pvm.groups",
                 "apps.radio.unreliable", "examples.quickstart.broadcast",
                 "examples.quickstart.extrusion", "examples.quickstart.counter",
                 "examples.s6.internal_choice", "examples.s6.external_choice"):
        terms[name] = paper[name]
    return terms


CROSS_TERMS = _cross_terms()


@pytest.mark.parametrize("name", sorted(CROSS_TERMS))
class TestEntryPointsAgree:
    """reachable_states, find_quiescent, can_reach_barb and build_step_lts
    walk the same closed graph and charge the same states."""

    def test_reachable_states_are_the_step_graph(self, name):
        p = CROSS_TERMS[name]
        reach_meter = Budget().meter()
        states = reachable_states(p, collapse=False, budget=reach_meter)
        lts_meter = Budget().meter()
        lts, root = build_step_lts(p, budget=lts_meter)
        assert root == 0
        assert states == lts.states
        assert reach_meter.states == lts_meter.states == lts.n_states

    def test_quiescent_states_have_no_out_edges(self, name):
        p = CROSS_TERMS[name]
        lts, _root = build_step_lts(p)
        assert find_quiescent(p, collapse=False) == \
            [s for s, out in zip(lts.states, lts.edges) if not out]

    def test_reach_is_true_iff_an_explored_state_barbs(self, name):
        p = CROSS_TERMS[name]
        lts, _root = build_step_lts(p)
        channels = sorted(free_names(p) | {"zz"})
        for chan in channels:
            v = can_reach_barb(p, chan, presolve=False,
                               collapse_duplicates=False)
            first = next((sid for sid, s in enumerate(lts.states)
                          if chan in barbs(s)), None)
            assert v.is_true == (first is not None), chan
            if first is None:
                assert v.is_false and v.stats["states"] == lts.n_states
            else:
                # BFS stops at the first barbing state: everything the
                # states before it discovered has been charged
                charged = 1 + max((t for out in lts.edges[:first]
                                   for _, t in out), default=0)
                assert v.evidence is lts.states[first]
                assert v.stats["states"] == charged
