"""Barbed bisimilarity (Definition 3) and barbed equivalence (Definition 4).

* strong: a symmetric S with — p -tau-> p' implies q -tau-> q' with
  (p',q') in S; and p |down a implies q |down a.
* weak: tau-moves matched by ==> and strong barbs by weak barbs.

The default ``"onthefly"`` strategy plays the product game lazily over
the tau graph with up-to closures (see :mod:`.onthefly`); the
``"global"`` oracle decides by coarsest-partition refinement over the
(shared) tau graph, the weak case over the saturated graph with
weak-barb keys, which coincides with the asymmetric definition
(classical argument, cross-checked in the tests against hand-proved
examples from the paper).

Barbed *equivalence* closes the bisimilarity under static contexts
(Table 5); :func:`strong_barbed_equivalent` approximates the universal
context quantification with a finite family of sensor contexts — sound for
refutation, and exact on the image-finite fragment by Theorem 1, which the
test suite exercises via the labelled checker.
"""

from __future__ import annotations

from ..calculi.backend import CalculusBackend
from ..core.syntax import Process
from ..engine.budget import Budget, Meter
from ..engine.verdict import Verdict
from .step import _reduction_bisimilar


def strong_barbed_bisimilar(p: Process, q: Process, *,
                            budget: Budget | Meter | None = None,
                            strategy: str = "onthefly",
                            calculus: str | CalculusBackend | None = None
                            ) -> Verdict:
    """Decide ``p ~b q`` (strong barbed bisimilarity)."""
    return _reduction_bisimilar(p, q, steps=False, weak=False,
                                budget=budget, strategy=strategy,
                                calculus=calculus)


def weak_barbed_bisimilar(p: Process, q: Process, *,
                          budget: Budget | Meter | None = None,
                          strategy: str = "onthefly",
                          calculus: str | CalculusBackend | None = None
                          ) -> Verdict:
    """Decide ``p ~~b q`` (weak barbed bisimilarity)."""
    return _reduction_bisimilar(p, q, steps=False, weak=True,
                                budget=budget, strategy=strategy,
                                calculus=calculus)


def barbed_bisimilar(p: Process, q: Process, *, weak: bool = False,
                     budget: Budget | Meter | None = None,
                     strategy: str = "onthefly",
                     calculus: str | CalculusBackend | None = None) -> Verdict:
    """Dispatch on *weak*."""
    return _reduction_bisimilar(p, q, steps=False, weak=weak,
                                budget=budget, strategy=strategy,
                                calculus=calculus)
