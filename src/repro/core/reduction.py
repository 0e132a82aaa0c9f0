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
    BudgetExceeded,
    Meter,
    StateSpaceExceeded,
    resolve_meter,
)
from ..engine.verdict import Verdict
from .actions import OutputAction, TauAction
from .names import Name
from .semantics import Transition, step_transitions
from .syntax import Process, Restrict, purge_node_caches

__all__ = [
    "StateSpaceExceeded", "barbs", "has_barb", "tau_successors",
    "step_successors", "step_successors_closed", "weak_barbs",
    "has_weak_barb", "weak_step_barbs", "reachable_by_steps",
    "can_reach_barb",
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


def _closed_successors(steps: Callable[[Process], tuple[Transition, ...]]
                       ) -> Callable[[Process], tuple[Process, ...]]:
    """Step successors under *steps*, with extruded names re-restricted."""

    def step_successors_closed(p: Process) -> tuple[Process, ...]:
        """Step successors with extruded names re-restricted.

        For a *closed* system under reachability analysis there is no
        environment to remember an extruded name, so re-binding it around
        the residual preserves all reachable barbs on the original free
        channels while keeping the state space canonical (fresh names do
        not accumulate path-dependent identities).
        """
        out = []
        for action, target in steps(p):
            if isinstance(action, OutputAction) and action.binders:
                for b in reversed(action.binders):
                    target = Restrict(b, target)
            out.append(target)
        return tuple(out)

    return step_successors_closed


step_successors_closed = _closed_successors(step_transitions)


#: Default budget for the weak-barb closures.
DEFAULT_CLOSURE_BUDGET = Budget(max_states=10_000)

#: Default budget for :func:`can_reach_barb`.
DEFAULT_REACH_BUDGET = Budget(max_states=100_000)


def _bounded_closure(p: Process,
                     successors: Callable[[Process], tuple[Process, ...]],
                     meter: Meter,
                     canonical: Callable[[Process], Process] | None = None,
                     ) -> Iterator[Process]:
    """BFS over *successors* from *p*, governed by *meter*.

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


def can_reach_barb(p: Process, chan: Name, *,
                   budget: Budget | Meter | None = None,
                   collapse_duplicates: bool = False,
                   calculus=None,
                   presolve: bool = True) -> Verdict:
    """Reachability query: can *p* autonomously reach a state barbing *chan*?

    The workhorse behind the paper's examples — e.g. "does the cycle
    detector eventually signal on ``o``?" is ``can_reach_barb(system, 'o')``.
    Treats the system as closed: extruded names are re-restricted and
    states deduplicated up to structural congruence.

    Returns a three-valued :class:`~repro.engine.Verdict`: ``TRUE`` as
    soon as a barbing state is found, ``FALSE`` only when the *complete*
    bounded graph was exhausted without one, and ``UNKNOWN`` when the
    budget tripped first (the states seen so far ride along as
    ``verdict.evidence``).

    Unless ``presolve=False``, the flow abstraction
    (:mod:`repro.flow`) is consulted first: when the channel is provably
    inert — no reachable state may broadcast on it — the query returns a
    definite FALSE with a :class:`~repro.flow.FlowEvidence` witness and
    zero states explored (``stats["presolve"] == "flow"``).  The
    abstraction over-approximates, so only that polarity is ever taken
    from it; a reachable barb is always demonstrated by exploration.

    With ``collapse_duplicates`` states are further quotiented by
    idempotence of identical parallel components — a sound
    *under-approximation* (broadcast composition is monotone in parallel
    components), exact for systems that never count duplicate receptions;
    it turns the paper's examples' unbounded emitter pile-ups into small
    finite state spaces.
    """
    if presolve:
        # Lazy import: flow imports core at module level, so core must
        # only reach back at call time.
        from ..flow.presolve import flow_refutes_barb
        flow_evidence = flow_refutes_barb(p, chan, calculus=calculus)
        if flow_evidence is not None:
            return Verdict.of(False,
                              stats={"states": 0, "presolve": "flow"},
                              evidence=flow_evidence)
    from .canonical import canonical_state, canonical_state_collapsed
    canon = canonical_state_collapsed if collapse_duplicates else canonical_state
    meter = resolve_meter(budget, DEFAULT_REACH_BUDGET)
    # Lazy import: calculi imports core at module level, so core must only
    # reach back at call time.
    from ..calculi import registry as _registry
    successors = _closed_successors(_registry.resolve(calculus).step_transitions)
    explored = 0
    try:
        for q in _bounded_closure(p, successors, meter,
                                  canonical=canon):
            explored += 1
            if has_barb(q, chan):
                return Verdict.of(True, stats=meter.stats(), evidence=q)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc, evidence=explored)
    return Verdict.of(False, stats=meter.stats())
