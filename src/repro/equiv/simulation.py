"""Strong and weak simulation preorders (one-sided bisimulation).

``p <= q`` ("q simulates p"): every move of *p* — tau, binder-aligned
output, or input-or-discard — can be answered by *q*, with the successors
again in the relation.  The preorder is coarser than bisimilarity (which
is simulation in both directions *jointly*, strictly finer than mutual
simulation) and handy for refinement-style arguments about the paper's
examples (e.g. a detector with fewer edges simulates into one with more).

Implementation: the same greatest-fixpoint pair game as the labelled
checker, with only the left-to-right challenge family.
"""

from __future__ import annotations

from ..calculi.backend import CalculusBackend
from ..core.syntax import Process
from ..engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)
from ..engine.verdict import Verdict
from .game import solve_game
from .labelled import DEFAULT_BUDGET, _LabelledGame, _pair_key


class _SimulationGame(_LabelledGame):
    """One-sided variant: only p's moves generate challenges."""

    def challenges(self, key):
        p, q = key
        return self._one_sided(p, q, lambda a, b: _pair_key(a, b))


def simulates(q: Process, p: Process, *, weak: bool = False,
              budget: Budget | Meter | None = None,
              calculus: str | CalculusBackend | None = None) -> Verdict:
    """Does *q* simulate *p* (``p <= q``)?"""
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    game = _SimulationGame(weak, meter, backend=calculus)
    cache: dict = {}

    def challenges_of(key):
        got = cache.get(key)
        if got is None:
            got = cache[key] = game.challenges(key)
        return got

    try:
        flag = solve_game(_pair_key(p, q), challenges_of, budget=meter)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(flag, stats=meter.stats())


def similar(p: Process, q: Process, *,
            budget: Budget | Meter | None = None,
            **kw) -> Verdict:
    """Mutual simulation (coarser than bisimilarity).

    Kleene conjunction of the two directions, drawn from one shared
    meter; a FALSE direction refutes regardless of the other going
    UNKNOWN.
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    forward = simulates(q, p, budget=meter, **kw)
    if forward.is_false:
        return forward
    return forward & simulates(p, q, budget=meter, **kw)
