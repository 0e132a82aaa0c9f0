"""Experiment for the hash-consed term kernel.

Checked artifacts: structurally equal terms are pointer-identical, the
intern table sustains a high hit rate on exploration-shaped workloads, and
node-level memoization makes re-canonicalization of shared states cheap
(the property Lemma 6 justifies using canonical forms for state identity).
"""

import pytest

from benchmarks.helpers import (
    broadcast_star,
    deep_choice,
    random_finite,
    relay_star,
)
from repro.api import explore
from repro.core import syntax
from repro.core.cache import cache_stats, clear_caches
from repro.core.canonical import canonical_state
from repro.core.parser import parse
from repro.core.semantics import step_transitions
from repro.core.syntax import intern_stats


@pytest.mark.parametrize("n", [8, 16])
def test_intern_hit_rate_exploration(benchmark, n):
    """Exploring from one root revisits shared subterms: hits dominate."""

    def explore():
        clear_caches()
        p = broadcast_star(n)
        frontier = [p]
        for _ in range(4):
            frontier = [t for q in frontier for _, t in step_transitions(q)]
        return intern_stats()

    stats = benchmark(explore)
    assert stats["interned"] > 0
    assert stats["hit_rate"] > 0.5


@pytest.mark.parametrize("size", [30, 90])
def test_canonicalization_warm_vs_cold(benchmark, size):
    """Node-level memoization: the second canonicalization is a slot read."""
    terms = [random_finite(seed=s, size=size) for s in range(8)]

    def canonicalize_twice():
        clear_caches()
        cold = [canonical_state(t) for t in terms]
        warm = [canonical_state(t) for t in terms]
        return cold, warm

    cold, warm = benchmark(canonicalize_twice)
    for c, w in zip(cold, warm):
        assert c is w  # memoized on the node, not recomputed


#: (term, states, spine flattenings computed by one cold exploration).
#: Without the sub-spine memo the spine walk visits every spine node of
#: every edge target again: 30,505 visits for the star, 4,410 for the
#: relay.
SPINE_FLATTENINGS = [
    ("broadcast_star(10)", broadcast_star, 10, 1025, 3358),
    ("relay_star(5)", relay_star, 5, 244, 757),
]


@pytest.mark.parametrize("case", SPINE_FLATTENINGS, ids=lambda c: c[0])
def test_spine_flattened_once_per_node(benchmark, case):
    """A successor's spine is flattened from its sources' memoized
    sub-spines: an exact count of the ``_sp`` slots a cold exploration
    fills, read after the run, so it holds on any host."""
    _, build, n, states, flattenings = case

    def explore_cold():
        clear_caches()
        return explore(build(n))

    assert len(benchmark(explore_cold).lts.states) == states
    filled = [q for q in syntax._INTERN.values() if hasattr(q, "_sp")]
    assert len(filled) == flattenings


def test_identity_after_reparse(benchmark):
    """Parsing the same source twice yields the same interned object."""
    src = "nu x (x<a>.b! | a?.c! + tau.0 | rec X(y := a). tau.X<y>)"

    def reparse():
        return parse(src), parse(src)

    p, q = benchmark(reparse)
    assert p is q


@pytest.mark.parametrize("depth", [5, 7])
def test_shared_subterm_steps(benchmark, depth):
    """step_transitions over choice trees re-reads memoized child slots."""
    p = deep_choice(depth)

    def steps_cold():
        clear_caches()
        q = deep_choice(depth)
        return step_transitions(q)

    moves = benchmark(steps_cold)
    assert len(moves) >= 1
    stats = cache_stats()
    assert stats["interned"] > 0
    assert p is not None
