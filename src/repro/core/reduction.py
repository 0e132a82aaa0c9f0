"""Observables and reduction-style views of the LTS (Section 3).

* ``p |down a``   — *strong barb*: p can immediately broadcast on channel a.
* ``p |Down a``   — *weak barb*: p ==> p' with p' |down a   (after taus).
* ``-phi->``      — the *step* relation: outputs and tau, i.e. everything a
  closed broadcast system can do on its own (Section 3.2 argues this is the
  real reduction relation of the calculus).
* weak-phi barb ``|Down^phi a``: p (-phi->)* p' with p' |down a, used by
  step-bisimulation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator

from ..engine.budget import (
    Budget,
    Meter,
    StateSpaceExceeded,
    resolve_meter,
)
from .actions import Action, OutputAction, TauAction
from .names import Name
from .semantics import step_transitions
from .syntax import Process, Restrict, purge_node_caches

__all__ = [
    "StateSpaceExceeded", "barbs", "has_barb", "tau_successors",
    "step_successors", "step_successors_closed", "weak_barbs",
    "has_weak_barb", "weak_step_barbs", "reachable_by_steps",
    "close_extrusion",
]


def barbs(p: Process) -> frozenset[Name]:
    """The strong barbs of *p*: subjects of immediately available outputs.

    In a broadcast calculus only outputs are observable — sending is
    non-blocking, so an observer cannot tell reception from discarding.
    """
    try:
        return p._barbs
    except AttributeError:
        pass
    result = frozenset(a.chan for a, _ in step_transitions(p)
                       if isinstance(a, OutputAction))
    p._barbs = result
    return result


barbs.cache_clear = lambda: purge_node_caches(("_barbs",))  # type: ignore[attr-defined]


def has_barb(p: Process, chan: Name) -> bool:
    """``p |down chan``."""
    return chan in barbs(p)


def tau_successors(p: Process) -> tuple[Process, ...]:
    """All p' with ``p -tau-> p'``."""
    return tuple(t for a, t in step_transitions(p) if isinstance(a, TauAction))


def step_successors(p: Process) -> tuple[Process, ...]:
    """All p' with ``p -phi-> p'`` (phi an output or tau), labels dropped."""
    return tuple(t for _, t in step_transitions(p))


def close_extrusion(action: Action, target: Process) -> Process:
    """Re-restrict the names a bound output extrudes around its residual.

    For a *closed* system under reachability analysis there is no
    environment to remember an extruded name, so re-binding it around
    the residual preserves all reachable barbs on the original free
    channels while keeping the state space canonical (fresh names do not
    accumulate path-dependent identities).  Any other action's target is
    returned unchanged.
    """
    if isinstance(action, OutputAction) and action.binders:
        for b in reversed(action.binders):
            target = Restrict(b, target)
    return target


def step_successors_closed(p: Process) -> tuple[Process, ...]:
    """Step successors with extruded names re-restricted."""
    return tuple(close_extrusion(a, t) for a, t in step_transitions(p))


#: Default budget for the weak-barb closures.
DEFAULT_CLOSURE_BUDGET = Budget(max_states=10_000)


def _bounded_closure(p: Process,
                     successors: Callable[[Process], tuple[Process, ...]],
                     meter: Meter,
                     canonical: Callable[[Process], Process] | None = None,
                     ) -> Iterator[Process]:
    """BFS over *successors* from *p*, governed by *meter*.

    The kernel-level walk behind the Section-3 weak-barb predicates
    below (``core`` sits beneath ``lts``); closed-system searches over a
    backend grow an explicit graph with :func:`repro.lts.graph.grow`.
    Charges the meter one unit per distinct state (the start included)
    and raises :class:`BudgetExceeded` when it trips; states are
    deduplicated via *canonical* (defaults to alpha-canonicalization).
    """
    from .substitution import canonical_alpha
    canon = canonical or canonical_alpha
    start = canon(p)
    meter.charge()
    seen = {start}
    # Exploration continues from the canonical representative, so quotients
    # that shrink the term (e.g. duplicate-component collapse) actually
    # bound the growth of later states.
    queue = deque([start])
    while queue:
        q = queue.popleft()
        yield q
        for nxt in successors(q):
            key = canon(nxt)
            if key in seen:
                continue
            meter.charge()
            seen.add(key)
            queue.append(key)


def weak_barbs(p: Process, *,
               budget: Budget | Meter | None = None) -> frozenset[Name]:
    """The weak barbs of *p*: ``{a | p ==> p' and p' |down a}``.

    ``==>`` is the reflexive-transitive closure of ``-tau->``.  Raises
    :class:`BudgetExceeded` (raw-explorer contract) on budget trip.
    """
    meter = resolve_meter(budget, DEFAULT_CLOSURE_BUDGET)
    out: set[Name] = set()
    for q in _bounded_closure(p, tau_successors, meter):
        out |= barbs(q)
    return frozenset(out)


def has_weak_barb(p: Process, chan: Name, *,
                  budget: Budget | Meter | None = None) -> bool:
    """``p |Down chan``."""
    meter = resolve_meter(budget, DEFAULT_CLOSURE_BUDGET)
    for q in _bounded_closure(p, tau_successors, meter):
        if has_barb(q, chan):
            return True
    return False


def weak_step_barbs(p: Process, *, budget: Budget | Meter | None = None
                    ) -> frozenset[Name]:
    """``{a | p (-phi->)* p' and p' |down a}`` — step-weak barbs.

    Step-bisimulation (Definition 5) uses this observability predicate: a
    channel counts as observable if the process can broadcast on it after
    some autonomous steps (including other broadcasts, not only taus).
    """
    meter = resolve_meter(budget, DEFAULT_CLOSURE_BUDGET)
    out: set[Name] = set()
    for q in _bounded_closure(p, step_successors, meter):
        out |= barbs(q)
    return frozenset(out)


def reachable_by_steps(p: Process, *, budget: Budget | Meter | None = None
                       ) -> Iterator[Process]:
    """All processes reachable from *p* by ``-phi->`` steps (bounded BFS)."""
    meter = resolve_meter(budget, DEFAULT_CLOSURE_BUDGET)
    return _bounded_closure(p, step_successors, meter)
