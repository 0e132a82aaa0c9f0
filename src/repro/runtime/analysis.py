"""Reachability-style analyses for closed broadcast systems.

Where the simulator *samples* runs, this module *quantifies over* them:
each query explores the whole (bounded) graph of autonomous ``-phi->``
steps — the reduction relation Section 3.2 takes as primitive — and
answers a temporal question about every execution at once.  This is the
machinery behind the paper's example claims ("the detector broadcasts o
**iff** the graph has a cycle", "every transaction log reaching an
inconsistent state is flagged"): such iff-statements need exhaustive
search, not seeded runs.

Generic verification queries over the collapsed state graph, shared by
the applications (:mod:`repro.apps`) and usable on any closed term:

* :func:`reachable_states` — the bounded state set (BFS over canonical
  states, the Definition 2 LTS restricted to autonomous moves);
* :func:`find_quiescent` — reachable deadlocks/terminations (states with
  no ``-phi->`` successor, the targets of Example 1-style stabilisation
  arguments);
* :func:`can_diverge` — is there a reachable tau-only cycle?  (infinite
  internal chatter with no observable broadcast — the divergence the
  weak equivalences of Definition 14 deliberately ignore);
* :func:`invariant_holds` — a safety check: does a state predicate hold
  in every reachable state, with a counterexample witness if not;
* :func:`eventually_always` — does the predicate hold in every reachable
  *quiescent* state?  (the "after stabilisation" reading of Example 1's
  correctness claim; vacuous if the bound cuts every run short).

All queries treat the system as closed — names extruded by a bound
output are re-restricted around the residual, matching rule 5/6's
re-capture discipline for systems without an environment — and use the
duplicate-collapse quotient by default (sound for reachability; see
``repro.core.canonical``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator

from ..calculi import registry as _registry
from ..calculi.backend import CalculusBackend
from ..core.actions import TauAction
from ..core.canonical import canonical_state, canonical_state_collapsed
from ..core.syntax import Process, Restrict
from ..engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)
from ..engine.verdict import Verdict

Predicate = Callable[[Process], bool]

#: Default budget for whole-graph analyses.
DEFAULT_BUDGET = Budget(max_states=50_000)


def _canon(collapse: bool):
    return canonical_state_collapsed if collapse else canonical_state


def _closed_successors(state: Process,
                       backend: CalculusBackend | None = None
                       ) -> Iterator[tuple[bool, Process]]:
    """(is_tau, successor) pairs with extrusions re-bound."""
    if backend is None:
        backend = _registry.default()
    for action, target in backend.step_transitions(state):
        if getattr(action, "binders", ()):
            for b in reversed(action.binders):
                target = Restrict(b, target)
        yield isinstance(action, TauAction), target


def reachable_states(p: Process, *, budget: Budget | Meter | None = None,
                     collapse: bool = True,
                     calculus: str | CalculusBackend | None = None
                     ) -> list[Process]:
    """All reachable canonical states (BFS, budget-governed).

    Raw-explorer contract: a budget trip raises
    :class:`~repro.engine.budget.BudgetExceeded` with the states found so
    far on ``exc.partial``.
    """
    backend = _registry.resolve(calculus)
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    canon = _canon(collapse)
    start = canon(p)
    meter.charge()
    seen = {start}
    queue = deque([start])
    order = [start]
    try:
        while queue:
            state = queue.popleft()
            for _, target in _closed_successors(state, backend):
                key = canon(target)
                if key in seen:
                    continue
                meter.charge()
                seen.add(key)
                order.append(key)
                queue.append(key)
    except BudgetExceeded as exc:
        if exc.partial is None:
            exc.partial = order
        raise
    return order


def find_quiescent(p: Process, **kw) -> list[Process]:
    """Reachable states with no autonomous step (deadlocks/termination)."""
    backend = _registry.resolve(kw.get("calculus"))
    return [s for s in reachable_states(p, **kw)
            if not backend.step_transitions(s)]


def can_diverge(p: Process, *, budget: Budget | Meter | None = None,
                collapse: bool = True,
                calculus: str | CalculusBackend | None = None) -> Verdict:
    """Is a tau-only cycle reachable?  (Infinite internal chatter.)

    ``UNKNOWN`` when the reachable set is truncated by the budget — an
    unexplored region may still hide a cycle.
    """
    backend = _registry.resolve(calculus)
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    canon = _canon(collapse)
    try:
        states = reachable_states(p, budget=meter, collapse=collapse,
                                  calculus=backend)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    index = {s: i for i, s in enumerate(states)}
    tau_succ: list[list[int]] = [[] for _ in states]
    for s in states:
        for is_tau, target in _closed_successors(s, backend):
            if is_tau:
                tau_succ[index[s]].append(index[canon(target)])
    # cycle detection in the tau-subgraph
    WHITE, GREY, BLACK = 0, 1, 2
    colour = [WHITE] * len(states)
    for root in range(len(states)):
        if colour[root] != WHITE:
            continue
        stack = [(root, iter(tau_succ[root]))]
        colour[root] = GREY
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                colour[node] = BLACK
                stack.pop()
                continue
            if colour[nxt] == GREY:
                return Verdict.of(True, stats=meter.stats(),
                                  evidence=states[nxt])
            if colour[nxt] == WHITE:
                colour[nxt] = GREY
                stack.append((nxt, iter(tau_succ[nxt])))
    return Verdict.of(False, stats=meter.stats())


def invariant_holds(p: Process, predicate: Predicate, *,
                    budget: Budget | Meter | None = None,
                    collapse: bool = True,
                    witness: list | None = None,
                    calculus: str | CalculusBackend | None = None,
                    presolve: bool = True) -> Verdict:
    """Does *predicate* hold in every reachable state?

    ``FALSE`` carries the violating state as evidence (and appends it to
    *witness* when given); ``TRUE`` needs the complete bounded graph, so a
    budget trip yields ``UNKNOWN`` with the states explored so far.

    When *predicate* is the recognisable :class:`~repro.flow.NoBarb`
    shape (and ``presolve`` is left on), the flow abstraction is tried
    first: a proof that the channel is inert yields a definite ``TRUE``
    with zero states explored (``stats["presolve"] == "flow"``) and the
    :class:`~repro.flow.FlowEvidence` as evidence.  The abstraction
    over-approximates reachability, so it can only ever *strengthen* the
    TRUE side — violations always come from explored states.
    """
    if presolve:
        from ..flow.presolve import flow_proves_invariant
        flow_evidence = flow_proves_invariant(p, predicate,
                                              calculus=calculus)
        if flow_evidence is not None:
            return Verdict.of(True,
                              stats={"states": 0, "presolve": "flow"},
                              evidence=flow_evidence)
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    try:
        for s in reachable_states(p, budget=meter, collapse=collapse,
                                  calculus=calculus):
            if not predicate(s):
                if witness is not None:
                    witness.append(s)
                return Verdict.of(False, stats=meter.stats(), evidence=s)
    except BudgetExceeded as exc:
        # The truncated prefix may still contain a violation — check it
        # before degrading, so refutations survive budget trips.
        for s in (exc.partial or ()):
            if not predicate(s):
                if witness is not None:
                    witness.append(s)
                return Verdict.of(False, stats=meter.stats(), evidence=s)
        return Verdict.from_exceeded(exc)
    return Verdict.of(True, stats=meter.stats())


def eventually_always(p: Process, predicate: Predicate, *,
                      budget: Budget | Meter | None = None,
                      collapse: bool = True) -> Verdict:
    """Does *predicate* hold in every reachable *quiescent* state?

    Vacuously true when the system never quiesces within the bound;
    ``UNKNOWN`` when the budget trips before the graph is exhausted.
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    try:
        quiescent = find_quiescent(p, budget=meter, collapse=collapse)
    except BudgetExceeded as exc:
        backend = _registry.default()
        for s in (exc.partial or ()):
            if not backend.step_transitions(s) and not predicate(s):
                return Verdict.of(False, stats=meter.stats(), evidence=s)
        return Verdict.from_exceeded(exc)
    for s in quiescent:
        if not predicate(s):
            return Verdict.of(False, stats=meter.stats(), evidence=s)
    return Verdict.of(True, stats=meter.stats())
