"""The flow analysis subsystem: capability sets and the pre-solver.

The one invariant everything here orbits: the abstraction is a *may*
analysis.  It over-approximates what can ever happen, so the only
definite answers it may hand out are negative ones — "this barb is
unreachable", "this invariant holds".  The Hypothesis oracle at the
bottom pins that against the exact bounded explorer across all three
calculus backends.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.canonical import canonical_state
from repro.runtime.analysis import can_reach_barb
from repro.engine import Budget
from repro.flow import (
    ENV,
    FLOW_VERSION,
    FlowEvidence,
    NoBarb,
    clear_caches,
    flow_analysis,
    flow_proves_invariant,
    flow_refutes_barb,
    memo_stats,
)
from repro.runtime.analysis import invariant_holds

from tests.strategies import FREE_NAMES, processes0, processes1

parse = repro.parse


# -- capability sets --------------------------------------------------------

def test_mobile_relay_capabilities():
    fa = flow_analysis(parse("a<v> | a(x).x!"))
    caps = fa.channels()
    assert caps["a"].may_broadcast
    assert caps["a"].may_listen
    assert "v" in caps["a"].may_carry
    # v flows into x, so a broadcast on v is possible
    assert caps["v"].may_broadcast


def test_restricted_payload_renders_as_private():
    # bound names are renamed by canonical_state, so they never leak
    # into the public sets — a carried nu token prints as "#private"
    caps = flow_analysis(parse("nu x a<x>.x!")).channels()
    assert "#private" in caps["a"].may_carry


def test_may_extrude_marks_names_sent_as_payload():
    caps = flow_analysis(parse("c<a> | b!")).channels()
    assert caps["a"].may_extrude
    assert not caps["b"].may_extrude


def test_nu_extrusion_flag():
    extruded = flow_analysis(parse("nu x a<x>.x!")).restrictions[0]
    assert extruded.extruded
    confined = flow_analysis(parse("nu x x!.0")).restrictions[0]
    assert not confined.extruded


def test_env_token_appears_only_in_open_mode():
    p = parse("a(x).x!")
    open_fa = flow_analysis(p, mode="open")
    closed_fa = flow_analysis(p, mode="closed")
    # open: the environment may broadcast on a, feeding x with anything
    assert "a" in open_fa.may_broadcast_names()
    assert "a" not in closed_fa.may_broadcast_names()


def test_describe_emits_a_table():
    lines = list(repro.flow.analysis.describe(
        flow_analysis(parse("a<v> | a(x).x!"))))
    assert any("channel" in line for line in lines)
    assert any(line.startswith("a") for line in lines)


def test_free_identifier_marks_incomplete():
    from repro.core.syntax import Ident
    fa = flow_analysis(Ident("Mystery", ()), mode="closed")
    assert fa.incomplete
    assert not fa.refutes_barb("a")  # incomplete analyses refuse to refute


# -- the pre-solver ---------------------------------------------------------

def test_refutes_inert_barb():
    ev = flow_refutes_barb(parse("nu x x!.0 | b!"), "a")
    assert isinstance(ev, FlowEvidence)
    assert ev.kind == "barb-unreachable"
    assert ev.channel == "a"
    assert ev.states_explored == 0
    assert ev.version == FLOW_VERSION
    assert "b" in ev.may_broadcast
    payload = ev.to_json()
    assert payload["kind"] == "barb-unreachable"


def test_never_refutes_a_reachable_barb():
    assert flow_refutes_barb(parse("a!"), "a") is None
    assert flow_refutes_barb(parse("tau.a!"), "a") is None
    # v reaches x which then broadcasts — must stay unrefuted
    assert flow_refutes_barb(parse("a<v> | a(x).x!"), "v") is None


def test_reach_presolves_to_zero_states():
    v = repro.reach("nu x x!.0 | b!", "a")
    assert v.is_false
    assert v.stats["presolve"] == "flow"
    assert v.stats["states"] == 0
    assert isinstance(v.evidence, FlowEvidence)


def test_reach_without_presolve_explores():
    v = repro.reach("nu x x!.0 | b!", "a", presolve=False)
    assert v.is_false
    assert "presolve" not in v.stats
    assert v.stats["states"] >= 1


def test_no_barb_predicate():
    pred = NoBarb("a")
    assert not pred(parse("a!"))
    assert pred(parse("b!"))


def test_invariant_holds_presolves_no_barb():
    v = invariant_holds(parse("b! | tau.c!"), NoBarb("a"))
    assert v.is_true
    assert v.stats["presolve"] == "flow"
    assert v.stats["states"] == 0
    assert v.evidence.kind == "invariant-no-barb"


def test_invariant_holds_explores_when_presolve_off():
    v = invariant_holds(parse("b! | tau.c!"), NoBarb("a"), presolve=False)
    assert v.is_true
    assert "presolve" not in v.stats


def test_invariant_prover_ignores_opaque_predicates():
    # an arbitrary lambda is not the recognisable NoBarb shape
    assert flow_proves_invariant(parse("b!"), lambda s: True) is None


# -- backend awareness ------------------------------------------------------

def test_digest_varies_with_calculus():
    p = parse("a<v> | a(x).x!")
    digests = {flow_analysis(p, calculus=c).digest()
               for c in ("bpi", "lossy", "wireless:a-b")}
    assert len(digests) == 3


def test_wireless_topology_adds_cross_cell_delivery():
    # bpi delivery needs the same channel; the wireless backend also
    # delivers along topology edges, and the abstraction must track that
    p = parse("a<v> | b(x).x!")
    assert "v" not in flow_analysis(p, mode="closed").may_broadcast_names()
    linked = flow_analysis(p, mode="closed", calculus="wireless:a-b")
    assert "v" in linked.may_broadcast_names()


def test_lossy_keeps_the_bpi_approximation():
    # loss only removes behaviours; the may-analysis is unchanged
    p = parse("a<v> | a(x).x!")
    assert (flow_analysis(p, calculus="lossy").capability_sets()
            == flow_analysis(p).capability_sets())


# -- memoisation ------------------------------------------------------------

def test_analysis_is_memoised_on_node_identity():
    clear_caches()
    p = parse("a<v> | a(x).x!")
    fa1 = flow_analysis(p)
    fa2 = flow_analysis(parse("a<v> | a(x).x!"))  # hash-consed: same node
    assert fa1 is fa2
    assert memo_stats()["analyses"] >= 1
    clear_caches()
    assert memo_stats()["analyses"] == 0


# -- Hypothesis: soundness oracle and canonicalisation stability ------------

CALCULI = ("bpi", "lossy", "wireless:a-b,b-c")

_ORACLE_BUDGET = Budget(max_states=600)


@pytest.mark.parametrize("calculus", CALCULI)
@settings(max_examples=40, deadline=None)
@given(p=processes1, chan=st.sampled_from(FREE_NAMES))
def test_presolver_never_refutes_a_true_barb(calculus, p, chan):
    """If flow refutes the barb, exhaustive search must not reach it."""
    ev = flow_refutes_barb(p, chan, calculus=calculus)
    if ev is None:
        return  # nothing claimed, nothing to check
    truth = can_reach_barb(p, chan, presolve=False, calculus=calculus,
                           budget=_ORACLE_BUDGET)
    # UNKNOWN (budget trip) is acceptable; TRUE contradicts the proof.
    assert not truth.is_true, (
        f"flow claimed {chan!r} inert but exploration reached it: {p!r}")


@settings(max_examples=40, deadline=None)
@given(p=processes0, chan=st.sampled_from(FREE_NAMES))
def test_presolved_reach_agrees_with_exploration(p, chan):
    """The public verb with presolve on never flips an answer."""
    fast = repro.reach(p, chan, budget=Budget(max_states=600))
    slow = repro.reach(p, chan, budget=Budget(max_states=600),
                       presolve=False)
    if fast.is_false and fast.stats.get("presolve") == "flow":
        assert not slow.is_true


def _live_rows(sets: dict) -> dict:
    """Rows with at least one capability.  ``canonical_state`` may erase
    inert vocabulary entirely (``[a=a]{0}{0}`` becomes ``0``), and an
    absent row means exactly "no capabilities" — so all-false rows and
    missing rows are the same statement."""
    return {name: row for name, row in sets.items()
            if row["may_broadcast"] or row["may_listen"]
            or row["may_extrude"] or row["may_carry"]}


@pytest.mark.parametrize("mode", ("open", "closed"))
@settings(max_examples=60, deadline=None)
@given(p=processes1)
def test_capability_sets_stable_under_canonicalisation(mode, p):
    """canonical_state only reshuffles structure the abstraction ignores."""
    q = canonical_state(p)
    assert (_live_rows(flow_analysis(p, mode=mode).capability_sets())
            == _live_rows(flow_analysis(q, mode=mode).capability_sets()))
