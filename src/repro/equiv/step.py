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
the oracle the property tests compare against.  The barbed checkers
(:mod:`.barbed`) run the same driver over the tau graph.
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
from .reduction_graph import (
    DEFAULT_BUDGET,
    build_reduction_graph,
)


def _reduction_bisimilar(p: Process, q: Process, *, steps: bool,
                         weak: bool, budget: Budget | Meter | None,
                         strategy: str,
                         calculus: str | CalculusBackend | None) -> Verdict:
    """The one driver of the barbed (``steps=False``: the tau graph) and
    step (``steps=True``: the phi graph) checkers, strong or *weak*."""
    validate_strategy(strategy)
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    backend = _registry.resolve(calculus)
    try:
        if strategy == "onthefly":
            challenges = reduction_challenges(steps=steps, weak=weak,
                                              meter=meter, backend=backend)
            flag = explore_product(product_root(p, q), challenges,
                                   budget=meter)
        else:
            graph, (rp, rq) = build_reduction_graph(
                (p, q), steps=steps, budget=meter, backend=backend)
            successors = [frozenset(t for _, t in out) for out in graph.edges]
            keys = [backend.barbs(s) for s in graph.states]
            if weak:
                successors = reachability_closure(successors)
                keys = weak_keys(successors, keys)
            block = coarsest_partition(successors, keys, budget=meter)
            flag = block[rp] == block[rq]
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(flag, stats=meter.stats())


def strong_step_bisimilar(p: Process, q: Process, *,
                          budget: Budget | Meter | None = None,
                          strategy: str = "onthefly",
                          calculus: str | CalculusBackend | None = None
                          ) -> Verdict:
    """Decide ``p ~phi q`` (strong step-bisimilarity)."""
    return _reduction_bisimilar(p, q, steps=True, weak=False,
                                budget=budget, strategy=strategy,
                                calculus=calculus)


def weak_step_bisimilar(p: Process, q: Process, *,
                        budget: Budget | Meter | None = None,
                        strategy: str = "onthefly",
                        calculus: str | CalculusBackend | None = None
                        ) -> Verdict:
    """Decide ``p ~~phi q`` (weak step-bisimilarity)."""
    return _reduction_bisimilar(p, q, steps=True, weak=True,
                                budget=budget, strategy=strategy,
                                calculus=calculus)


def step_bisimilar(p: Process, q: Process, *, weak: bool = False,
                   budget: Budget | Meter | None = None,
                   strategy: str = "onthefly",
                   calculus: str | CalculusBackend | None = None) -> Verdict:
    """Dispatch on *weak*."""
    return _reduction_bisimilar(p, q, steps=True, weak=weak,
                                budget=budget, strategy=strategy,
                                calculus=calculus)
