"""Experiment S6c: may-testing — the Section 6 observation as a row.

Artifact: a!.(b! + c!) and a!.b! + a!.c! are bisimulation-inequivalent but
may-testing equivalent (and trace-equal).
"""

import pytest

from repro.core.parser import parse
from repro.equiv.labelled import weak_bisimilar
from repro.equiv.maytesting import (
    may_equivalent_sampled,
    observer_family,
    output_traces,
)


def test_section6_pair(benchmark):
    lhs, rhs = parse("a!.(b! + c!)"), parse("a!.b! + a!.c!")

    def verify():
        assert not weak_bisimilar(lhs, rhs)
        assert output_traces(lhs) == output_traces(rhs)
        return may_equivalent_sampled(lhs, rhs)

    assert benchmark(verify)


@pytest.mark.parametrize("depth", [3, 5])
def test_trace_language_cost(benchmark, depth):
    p = parse("a!.b! + a!.c!.d! | e?")

    def compute():
        return len(output_traces(p, max_depth=depth))

    assert benchmark(compute) >= 3


def test_observer_family_sweep(benchmark):
    p, q = parse("a!.b!"), parse("a! | b!")

    def verify():
        obs = observer_family(p, q)
        assert len(obs) >= 5
        return may_equivalent_sampled(p, q, observers=obs)

    # a!.b! vs a!|b!: a sequential listener hearing b then a succeeds only
    # against the parallel version — may-testing distinguishes them.
    assert benchmark(verify).is_false
