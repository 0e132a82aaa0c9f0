"""Ablation rows for the design choices DESIGN.md calls out.

Quantifies what each state-identity quotient buys during exploration:

* plain alpha-canonicalization only (baseline);
* + structural congruence (`canonical_state`: Lemma-6 laws);
* + duplicate-component collapse (`canonical_state_collapsed`).

The workload is the Example-1 triangle system, a broadcast star, and the
pi-encoding handshake — each measured as (states interned until the
verdict / exhaustion at a small cap).
"""

import pytest

from repro.apps.cycle_detection import prefed_system
from repro.calculi.encodings import pi_to_bpi
from repro.core.canonical import canonical_state, canonical_state_collapsed
from repro.core.parser import parse
from repro.core.reduction import (
    StateSpaceExceeded,
    _bounded_closure,
    barbs,
    step_successors_closed,
)
from repro.core.substitution import canonical_alpha
from repro.engine import Budget

QUOTIENTS = {
    "alpha": canonical_alpha,
    "structural": canonical_state,
    "collapsed": canonical_state_collapsed,
}


def explore(p, canon, cap, stop_barb=None):
    """Return (#states, found) exploring up to *cap* states."""
    n, found = 0, False
    try:
        for s in _bounded_closure(p, step_successors_closed,
                                  Budget(max_states=cap).meter(),
                                  canonical=canon):
            n += 1
            if stop_barb is not None and stop_barb in barbs(s):
                found = True
                break
    except StateSpaceExceeded:
        return cap, found
    return n, found


@pytest.mark.parametrize("quotient", ["structural", "collapsed"])
def test_triangle_detection(benchmark, quotient):
    """Example 1's triangle: both structural quotients find the signal;
    the collapse variant in strictly fewer interned states."""
    canon = QUOTIENTS[quotient]
    system = prefed_system([("a", "b"), ("b", "c"), ("c", "a")])

    def measure():
        return explore(system, canon, cap=4_000, stop_barb="o")

    states, found = benchmark(measure)
    assert found, quotient


@pytest.mark.parametrize("quotient", sorted(QUOTIENTS))
def test_encoding_exhaustion(benchmark, quotient):
    """The pi-encoding handshake: collapsed exhausts in ~dozens of states;
    the weaker quotients hit the cap (unbounded garbage)."""
    canon = QUOTIENTS[quotient]
    enc = pi_to_bpi(parse("a<v>.done! | a(x).x!"))

    def measure():
        return explore(enc, canon, cap=400)

    states, _ = benchmark(measure)
    if quotient == "collapsed":
        assert states < 400
    # (alpha/structural may or may not hit the cap depending on garbage
    # shape — the recorded row shows the gap)


def test_quotient_state_counts_ordered(benchmark):
    """The quotients are ordered: finer identity -> fewer interned states."""
    system = prefed_system([("a", "b"), ("b", "a")])

    def measure():
        counts = {}
        for name, canon in QUOTIENTS.items():
            counts[name] = explore(system, canon, cap=1_500)[0]
        return counts

    counts = benchmark(measure)
    assert counts["collapsed"] <= counts["structural"] <= counts["alpha"]
