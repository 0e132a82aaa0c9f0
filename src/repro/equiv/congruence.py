"""Strong and weak congruence ``~c`` / ``~~c`` (Definitions 11 and 15).

``p ~c q  iff  p sigma ~+ q sigma  for every substitution sigma.``

Quantifying over all substitutions reduces to quantifying over the ways
names can be *identified* (Lemmas 17–19 machinery): bisimilarity is closed
under injective renaming, so it suffices to check one representative
substitution per partition of ``fn(p, q)``.  Bell(|fn|) checks — free-name
sets in practice are small; the exhaustive/random test-suite cross-checks
this against barbed congruence via Theorem 3's sensor contexts.
"""

from __future__ import annotations

from typing import Iterator

from ..calculi.backend import CalculusBackend
from ..core.freenames import free_names
from ..core.names import Name, set_partitions
from ..core.substitution import apply_subst
from ..core.syntax import Process
from ..engine.budget import Budget, Meter, resolve_meter
from ..engine.verdict import Verdict
from .labelled import DEFAULT_BUDGET
from .noisy import strict_bisimilar


def identification_substitutions(names: frozenset[Name],
                                 ) -> Iterator[dict[Name, Name]]:
    """One representative substitution per partition of *names*.

    Each block is collapsed onto its minimum element; the identity
    partition yields the empty substitution.
    """
    ordered = tuple(sorted(names))
    for partition in set_partitions(ordered):
        sigma: dict[Name, Name] = {}
        for block in partition:
            rep = min(block)
            for name in block:
                if name != rep:
                    sigma[name] = rep
        yield sigma


def congruent(p: Process, q: Process, *, weak: bool = False,
              budget: Budget | Meter | None = None,
              witness: list | None = None,
              calculus: str | CalculusBackend | None = None) -> Verdict:
    """Decide ``p ~c q`` (strong) or ``p ~~c q`` (weak).

    If *witness* is given, the distinguishing substitution (when any) is
    appended to it.  All per-substitution ``~+`` checks draw from one
    shared meter; the first ``UNKNOWN`` sub-verdict short-circuits the
    whole check to ``UNKNOWN`` (a truncated sub-search can never certify
    the universal quantification).
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    names = free_names(p) | free_names(q)
    for sigma in identification_substitutions(names):
        sub = strict_bisimilar(apply_subst(p, sigma), apply_subst(q, sigma),
                               weak=weak, budget=meter, calculus=calculus)
        if sub.is_unknown:
            return Verdict.unknown(sub.reason or "max-states",
                                   stats=meter.stats(), evidence=sigma)
        if sub.is_false:
            if witness is not None:
                witness.append(sigma)
            return Verdict.of(False, stats=meter.stats(), evidence=sigma)
    return Verdict.of(True, stats=meter.stats())
