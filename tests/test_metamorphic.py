"""Metamorphic cross-checks between the library's layers.

Random-process properties tying independent implementations together: the
canonical forms, the four equivalence checkers, the preorders, the
normal-form machinery and the prover must all tell one consistent story.
"""

from hypothesis import given, settings

from repro.axioms.conditions import Partition
from repro.axioms.decide import rebuild_sum
from repro.axioms.nf import head_summands
from repro.axioms.proofs import normalize
from repro.core.canonical import canonical_state, canonical_state_collapsed
from repro.core.freenames import free_names
from repro.core.parser import parse
from repro.core.reduction import barbs
from repro.equiv.barbed import strong_barbed_bisimilar, weak_barbed_bisimilar
from repro.equiv.labelled import strong_bisimilar, weak_bisimilar
from repro.equiv.maytesting import output_traces
from repro.equiv.simulation import simulates
from repro.equiv.step import strong_step_bisimilar
from repro.engine import Budget
from repro.lts.weak import weak_barbs
from tests.strategies import finite_processes, processes0

SMALL = finite_processes(arity=0, max_leaves=4)


@given(SMALL)
@settings(max_examples=40, deadline=None)
def test_canonical_state_fully_equivalent(p):
    """canonical_state(p) is indistinguishable from p by EVERY checker."""
    c = canonical_state(p)
    assert strong_bisimilar(p, c)
    assert strong_barbed_bisimilar(p, c)
    assert strong_step_bisimilar(p, c)


@given(SMALL)
@settings(max_examples=30, deadline=None)
def test_collapse_preserves_weak_barbs(p):
    """The duplicate collapse is an under-approximation that keeps weak
    barbs on these finite terms (no counting logic present)."""
    c = canonical_state_collapsed(p)
    assert weak_barbs(c) <= weak_barbs(p)
    assert barbs(c) == barbs(p)


@given(SMALL)
@settings(max_examples=30, deadline=None)
def test_bisimilarity_implies_simulation_both_ways(p):
    q = canonical_state(p)
    assert simulates(p, q) and simulates(q, p)


@given(SMALL)
@settings(max_examples=30, deadline=None)
def test_strong_implies_weak_everywhere(p):
    q = p | parse("0")
    assert strong_bisimilar(p, q)
    assert weak_bisimilar(p, q)
    assert weak_barbed_bisimilar(p, q)


@given(SMALL)
@settings(max_examples=30, deadline=None)
def test_bisimilar_terms_have_equal_traces(p):
    q = (parse("0") | p) + parse("0")
    assert strong_bisimilar(p, q)
    assert output_traces(p, max_depth=4) == output_traces(q, max_depth=4)


@given(SMALL)
@settings(max_examples=30, deadline=None)
def test_hnf_and_prover_agree(p):
    """Two independent normalisations — head summands (Lemma 16) and the
    rewriting prover — both stay strongly bisimilar to the source."""
    part = Partition.discrete(free_names(p))
    h = rebuild_sum(head_summands(p, part))
    d = normalize(p)
    assert strong_bisimilar(p, h)
    assert strong_bisimilar(p, d.target)
    assert strong_bisimilar(h, d.target)


@given(processes0)
@settings(max_examples=20, deadline=None)
def test_weak_barbs_union_of_reachable_strong(p):
    from repro.lts.weak import reachable_by_steps
    reach_barbs = frozenset()
    for s in reachable_by_steps(p, budget=Budget(max_states=2_000)):
        reach_barbs |= barbs(s)
    # weak barbs follow tau-only steps: a subset of phi-reachable barbs
    assert weak_barbs(p) <= reach_barbs
