"""Step (phi-) bisimilarity (Definition 5) and step equivalence (Def. 6).

Step bisimulation observes the *autonomous step* relation ``-phi->`` —
any output or tau, unlabelled — which Section 3.2 argues is the real
reduction of a broadcast calculus (a sender never waits).  A symmetric S is
a strong step-bisimulation when, for (p,q) in S:

* p -phi-> p'  implies  q -phi-> q' with (p',q') in S;
* p |down a    implies  q |down a.

The weak variant matches against ``(-phi->)*`` and the phi-weak barb.

Two strategies decide it: ``"onthefly"`` (default) plays the product game
lazily with up-to closures (see :mod:`.onthefly`), ``"global"`` runs
partition refinement over the fully materialised phi-graph (see
``reduction_graph`` for how extruded names are handled) and is kept as
the oracle the property tests compare against.
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
from .onthefly import (
    explore_product,
    product_root,
    reduction_challenges,
    validate_strategy,
)
from .reduction_graph import DEFAULT_BUDGET, build_reduction_graph


def _onthefly_reduction(p: Process, q: Process, *, steps: bool, weak: bool,
                        meter: Meter,
                        backend: CalculusBackend | None = None) -> Verdict:
    """Shared on-the-fly driver for the step and barbed checkers."""
    try:
        challenges = reduction_challenges(steps=steps, weak=weak,
                                          meter=meter, backend=backend)
        flag = explore_product(product_root(p, q), challenges, budget=meter)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(flag, stats=meter.stats())


def strong_step_bisimilar(p: Process, q: Process, *,
                          budget: Budget | Meter | None = None,
                          strategy: str = "onthefly",
                          calculus: str | CalculusBackend | None = None
                          ) -> Verdict:
    """Decide ``p ~phi q`` (strong step-bisimilarity)."""
    validate_strategy(strategy)
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    backend = _registry.resolve(calculus)
    if strategy == "onthefly":
        return _onthefly_reduction(p, q, steps=True, weak=False, meter=meter,
                                   backend=backend)
    try:
        graph, (rp, rq) = build_reduction_graph((p, q), steps=True,
                                                budget=meter, backend=backend)
        block = coarsest_partition(graph.frozen_successors(),
                                   graph.state_barbs, budget=meter)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(block[rp] == block[rq], stats=meter.stats())


def weak_step_bisimilar(p: Process, q: Process, *,
                        budget: Budget | Meter | None = None,
                        strategy: str = "onthefly",
                        calculus: str | CalculusBackend | None = None
                        ) -> Verdict:
    """Decide ``p ~~phi q`` (weak step-bisimilarity)."""
    validate_strategy(strategy)
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    backend = _registry.resolve(calculus)
    if strategy == "onthefly":
        return _onthefly_reduction(p, q, steps=True, weak=True, meter=meter,
                                   backend=backend)
    try:
        graph, (rp, rq) = build_reduction_graph((p, q), steps=True,
                                                budget=meter, backend=backend)
        closure = reachability_closure(graph.frozen_successors())
        keys = weak_keys(closure, graph.state_barbs)
        block = coarsest_partition(closure, keys, budget=meter)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(block[rp] == block[rq], stats=meter.stats())


def step_bisimilar(p: Process, q: Process, *, weak: bool = False,
                   budget: Budget | Meter | None = None,
                   strategy: str = "onthefly",
                   calculus: str | CalculusBackend | None = None) -> Verdict:
    """Dispatch on *weak*."""
    if weak:
        return weak_step_bisimilar(p, q, budget=budget, strategy=strategy,
                                   calculus=calculus)
    return strong_step_bisimilar(p, q, budget=budget, strategy=strategy,
                                 calculus=calculus)
