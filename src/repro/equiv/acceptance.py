"""Acceptance sets — the denotational side of testing (extension).

Classical testing theory characterises must-preorders by *acceptance
sets*: after each trace, the collection of "ready sets" offered by the
stable (tau-quiescent) states reachable along it.  This module computes
the broadcast analogue over output traces:

* a *stable* state has no tau move (it may still broadcast — broadcasts
  are locally controlled, so the natural ready set here is the barb set);
* ``acceptance_sets(p, trace)`` = the barb-sets of stable states reachable
  by performing exactly *trace* (interleaved with taus);
* ``accepts_refines`` — the Smyth-style comparison underlying the
  must-preorder: q refines p when after every trace, each of q's
  acceptance sets dominates one of p's.

The classic separations come out right (tested): internal vs external
choice differ, ``a!.(b! + c!)`` vs ``a!.b! + a!.c!`` differ after ``a``,
while may-equivalence sees neither.
"""

from __future__ import annotations

from collections import deque

from ..calculi import registry as _registry
from ..core.actions import OutputAction, TauAction
from ..core.canonical import canonical_state
from ..core.names import Name
from ..core.reduction import barbs
from ..core.syntax import Process, Restrict
from ..engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)
from ..engine.verdict import Verdict

#: Default budget for acceptance-set exploration.
DEFAULT_BUDGET = Budget(max_states=20_000)

#: A trace is a tuple of output subjects (payloads ignored at this level).
Trace = tuple[Name, ...]


def _steps(p: Process):
    return _registry.default().step_transitions(p)


def is_stable(p: Process) -> bool:
    """No internal move available."""
    return not any(isinstance(a, TauAction) for a, _ in _steps(p))


def _after(p: Process, trace: Trace, meter: Meter) -> set[Process]:
    """All canonical states reachable by exactly *trace* (mod taus)."""
    current: set[Process] = set()
    frontier = deque([(canonical_state(p), 0)])
    seen: set[tuple[Process, int]] = set()
    results: set[Process] = set()
    while frontier:
        state, idx = frontier.popleft()
        if (state, idx) in seen:
            continue
        meter.charge()
        seen.add((state, idx))
        if idx == len(trace):
            results.add(state)
        for action, target in _steps(state):
            if isinstance(action, OutputAction) and action.binders:
                for b in reversed(action.binders):
                    target = Restrict(b, target)
            tgt = canonical_state(target)
            if isinstance(action, TauAction):
                frontier.append((tgt, idx))
            elif isinstance(action, OutputAction):
                if idx < len(trace) and action.chan == trace[idx]:
                    frontier.append((tgt, idx + 1))
    del current
    return results


def acceptance_sets(p: Process, trace: Trace = (), *,
                    budget: Budget | Meter | None = None,
                    ) -> frozenset[frozenset[Name]]:
    """The barb-sets of the stable states reachable after *trace*.

    Raw-explorer contract: raises
    :class:`~repro.engine.budget.BudgetExceeded` on budget trip.
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    return frozenset(barbs(s) for s in _after(p, trace, meter)
                     if is_stable(s))


def traces_upto(p: Process, max_depth: int = 4, *,
                budget: Budget | Meter | None = None) -> frozenset[Trace]:
    """Output-subject traces of length <= max_depth (prefix-closed).

    ``max_depth`` is semantic.  Raw-explorer contract: a budget trip
    raises :class:`~repro.engine.budget.BudgetExceeded` with the prefix
    language found so far attached to ``exc.partial`` — a truncated
    language is incomparable, so callers must not mistake it for the
    complete one (comparing truncated languages for (in)equality would
    fabricate definite verdicts from an exhausted budget).
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    out: set[Trace] = {()}
    frontier = deque([(canonical_state(p), ())])
    seen = set(frontier)
    try:
        while frontier:
            state, trace = frontier.popleft()
            if len(trace) >= max_depth:
                continue
            meter.tick()
            for action, target in _steps(state):
                if isinstance(action, OutputAction) and action.binders:
                    for b in reversed(action.binders):
                        target = Restrict(b, target)
                tgt = canonical_state(target)
                if isinstance(action, TauAction):
                    item = (tgt, trace)
                elif isinstance(action, OutputAction):
                    new_trace = trace + (action.chan,)
                    out.add(new_trace)
                    item = (tgt, new_trace)
                else:  # pragma: no cover - step_transitions yields no inputs
                    continue
                if item not in seen:
                    meter.charge()
                    seen.add(item)
                    frontier.append(item)
    except BudgetExceeded as exc:
        exc.partial = frozenset(out)
        raise
    return frozenset(out)


def accepts_refines(p: Process, q: Process, *, max_depth: int = 3,
                    budget: Budget | Meter | None = None) -> Verdict:
    """Smyth refinement of acceptance sets: for every common trace, each
    acceptance set of *q* includes some acceptance set of *p*.

    ``q`` refining ``p`` means q is at least as deterministic/ready as p —
    the denotational shadow of ``p <=must q`` for output-only behaviour.
    All sub-explorations share one meter; UNKNOWN on trip.
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    try:
        for trace in sorted(traces_upto(p, max_depth, budget=meter)):
            p_acc = acceptance_sets(p, trace, budget=meter)
            q_acc = acceptance_sets(q, trace, budget=meter)
            if not p_acc:
                continue
            for q_ready in q_acc:
                if not any(p_ready <= q_ready for p_ready in p_acc):
                    return Verdict.of(False, stats=meter.stats(),
                                      evidence=trace)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(True, stats=meter.stats())


def acceptance_equal(p: Process, q: Process, *, max_depth: int = 3,
                     budget: Budget | Meter | None = None) -> Verdict:
    """Same traces and same acceptance sets after each (bounded)."""
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    try:
        tp = traces_upto(p, max_depth, budget=meter)
        tq = traces_upto(q, max_depth, budget=meter)
        if tp != tq:
            return Verdict.of(False, stats=meter.stats(),
                              evidence=tp.symmetric_difference(tq))
        for t in sorted(tp):
            if acceptance_sets(p, t, budget=meter) != \
                    acceptance_sets(q, t, budget=meter):
                return Verdict.of(False, stats=meter.stats(), evidence=t)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(True, stats=meter.stats())
