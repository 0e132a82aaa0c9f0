"""Experiments TH2/TH3: the congruence ~c.

Measures the substitution-closure checker as the free-name count grows
(the partition sweep is Bell(|fn|)) and verifies closure under the
operators on sampled pairs.
"""

import pytest

from repro.core.builder import choice, inp, nu, out, par, tau
from repro.core.parser import parse
from repro.equiv.congruence import congruent, identification_substitutions


@pytest.mark.parametrize("n_names", [2, 3, 4])
def test_partition_sweep_growth(benchmark, n_names):
    names = [chr(ord("a") + i) for i in range(n_names)]
    p = choice(*(out(c, cont=inp(c, (), tau())) for c in names))
    q = choice(*(out(c, cont=inp(c, ())) for c in names))

    def verify():
        # p adds a dead tau after the reception: still congruent? No —
        # tau.0 vs 0 differ strongly; the checker must refute.
        return congruent(p, q)

    assert benchmark(verify).is_false


def test_identifications_enumeration(benchmark):
    names = frozenset("abcde")

    def enumerate_all():
        return sum(1 for _ in identification_substitutions(names))

    # Bell(5) = 52
    assert benchmark(enumerate_all) == 52


def test_congruence_closure_sampled(benchmark):
    pairs = [(parse("a! + a!"), parse("a!")),
             (parse("b? | 0"), parse("b?"))]
    r = parse("c(x).x!")

    def verify():
        count = 0
        for p, q in pairs:
            assert congruent(p, q)
            assert congruent(p + r, q + r)
            assert congruent(p | r, q | r)
            assert congruent(nu("a", p), nu("a", q))
            assert congruent(tau(p), tau(q))
            count += 1
        return count

    assert benchmark(verify) == 2


def test_h_law_congruence(benchmark):
    """(H): the gap between ~+ and ~, checked as a congruence row."""
    lhs = parse("a!.b<c>")
    rhs = parse("a!.(b<c> + h(x).b<c>)")

    def verify():
        return congruent(lhs, rhs)

    assert benchmark(verify)
