"""Experiment for the hash-consed term kernel.

Checked artifacts: structurally equal terms are pointer-identical, the
intern table sustains a high hit rate on exploration-shaped workloads, and
node-level memoization makes re-canonicalization of shared states cheap
(the property Lemma 6 justifies using canonical forms for state identity).
"""

import functools

import pytest

from benchmarks.helpers import (
    broadcast_star,
    deep_choice,
    random_finite,
    relay_star,
)
from repro.api import explore
from repro.core import canonical, syntax
from repro.core.cache import cache_stats, clear_caches
from repro.core.canonical import canonical_state
from repro.core.parser import parse
from repro.core.semantics import step_transitions
from repro.core.syntax import NIL, Output, Par, intern_stats


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


def _fresh(n: int, nest: str):
    """*n* distinct binder-free outputs in a scrambled order, composed
    right-nested or left-nested."""
    comps = [Output(f"c{i * 7919 % n}", (), NIL) for i in range(n)]
    if nest == "left":
        return functools.reduce(Par, comps)
    out = comps[-1]
    for c in reversed(comps[:-1]):
        out = Par(c, out)
    return out


#: (row, build, n, states, Par nodes normalization builds, nodes a cold
#: exploration interns).  A cold exploration canonicalizes a successor by merging its new components
#: into the longest suffix of its spine whose normal form is memoized,
#: building only the nodes above the last insertion; sorting and
#: rebuilding every successor's whole spine builds 11,028 for the star
#: and 1,609 for the relay.  A fresh composition has no such suffix and
#: is sorted once, about n nodes whichever way it nests; merging one
#: component per level instead builds a number quadratic in n (987,924
#: for the right-nested row).  The relay's spines that the hoisting walk
#: builds are memoized as their own normal forms too (997 before).  The
#: interned count covers every node exploring the built term adds to the
#: table (Table 3 targets, normal forms, labels' residuals), so a change
#: to the hot path that builds one node more or less shows here.
SPINE_NODES = [
    ("broadcast_star(10)", broadcast_star, 10, 1025, 2315, 3878),
    ("relay_star(5)", relay_star, 5, 244, 994, 845),
    ("fresh right-nested 2000", functools.partial(_fresh, nest="right"),
     2000, None, 2000, None),
    ("fresh left-nested 2000", functools.partial(_fresh, nest="left"),
     2000, None, 1999, None),
]


@pytest.mark.parametrize("case", SPINE_NODES, ids=lambda c: c[0])
def test_normalization_builds_spine_nodes(benchmark, monkeypatch, case):
    """An exact count of the ``Par`` nodes that ``_normalize`` builds
    (found in or added to the intern table) in one cold run, and of the
    nodes a cold exploration adds to the table, so both hold on any
    host."""
    row, build, n, states, expected, interned = case
    depth = built = added = 0
    construct = syntax._InternMeta.__call__
    normalize = canonical._normalize

    def counting_construct(cls, *args, **kwargs):
        nonlocal built
        if depth and cls is Par:
            built += 1
        return construct(cls, *args, **kwargs)

    def counting_normalize(p, collapse):
        nonlocal depth
        depth += 1
        try:
            return normalize(p, collapse)
        finally:
            depth -= 1

    monkeypatch.setattr(syntax._InternMeta, "__call__", counting_construct)
    monkeypatch.setattr(canonical, "_normalize", counting_normalize)

    def run_cold():
        nonlocal built, added
        clear_caches()
        term = build(n)
        built = 0
        if states is None:
            return canonical_state(term)
        before = intern_stats()["interned"]
        result = explore(term)
        added = intern_stats()["interned"] - before
        return result

    result = benchmark(run_cold)
    if states is not None:
        assert len(result.lts.states) == states
        print(f"{row}: {added} nodes interned by a cold exploration")
        assert added == interned
    print(f"{row}: {built} Par nodes built by normalization")
    assert built == expected


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
