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

from ..calculi import registry as _registry
from ..calculi.backend import CalculusBackend
from ..core.syntax import Process
from ..engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)
from ..engine.verdict import Verdict
from ..lts.partition import coarsest_partition
from ..lts.weak import reachability_closure, weak_keys
from .onthefly import validate_strategy
from .reduction_graph import DEFAULT_BUDGET, build_reduction_graph
from .step import _onthefly_reduction


def strong_barbed_bisimilar(p: Process, q: Process, *,
                            budget: Budget | Meter | None = None,
                            strategy: str = "onthefly",
                            calculus: str | CalculusBackend | None = None
                            ) -> Verdict:
    """Decide ``p ~b q`` (strong barbed bisimilarity)."""
    validate_strategy(strategy)
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    backend = _registry.resolve(calculus)
    if strategy == "onthefly":
        return _onthefly_reduction(p, q, steps=False, weak=False,
                                   meter=meter, backend=backend)
    try:
        graph, (rp, rq) = build_reduction_graph((p, q), steps=False,
                                                budget=meter, backend=backend)
        block = coarsest_partition(graph.frozen_successors(),
                                   graph.state_barbs, budget=meter)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(block[rp] == block[rq], stats=meter.stats())


def weak_barbed_bisimilar(p: Process, q: Process, *,
                          budget: Budget | Meter | None = None,
                          strategy: str = "onthefly",
                          calculus: str | CalculusBackend | None = None
                          ) -> Verdict:
    """Decide ``p ~~b q`` (weak barbed bisimilarity)."""
    validate_strategy(strategy)
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    backend = _registry.resolve(calculus)
    if strategy == "onthefly":
        return _onthefly_reduction(p, q, steps=False, weak=True,
                                   meter=meter, backend=backend)
    try:
        graph, (rp, rq) = build_reduction_graph((p, q), steps=False,
                                                budget=meter, backend=backend)
        closure = reachability_closure(graph.frozen_successors())
        keys = weak_keys(closure, graph.state_barbs)
        block = coarsest_partition(closure, keys, budget=meter)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(block[rp] == block[rq], stats=meter.stats())


def barbed_bisimilar(p: Process, q: Process, *, weak: bool = False,
                     budget: Budget | Meter | None = None,
                     strategy: str = "onthefly",
                     calculus: str | CalculusBackend | None = None) -> Verdict:
    """Dispatch on *weak*."""
    if weak:
        return weak_barbed_bisimilar(p, q, budget=budget, strategy=strategy,
                                     calculus=calculus)
    return strong_barbed_bisimilar(p, q, budget=budget, strategy=strategy,
                                   calculus=calculus)
