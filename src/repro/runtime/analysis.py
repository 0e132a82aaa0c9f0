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
* :func:`can_reach_barb` — can some reachable state broadcast on a
  channel?  (the paper's "the detector eventually signals on ``o``");
* :func:`find_quiescent` — reachable deadlocks/terminations (states with
  no ``-phi->`` successor, the targets of Example 1-style stabilisation
  arguments);
* :func:`can_diverge` — is there a reachable tau-only cycle?  (infinite
  internal chatter with no observable broadcast — the divergence the
  weak equivalences of Definition 14 deliberately ignore);
* :func:`invariant_holds` — a safety check, dual to
  :func:`can_reach_barb`: does a state predicate hold in every reachable
  state, with a counterexample witness if not;
* :func:`eventually_always` — does the predicate hold in every reachable
  *quiescent* state?  (the "after stabilisation" reading of Example 1's
  correctness claim; vacuous if the bound cuts every run short).

All queries treat the system as closed — names extruded by a bound
output are re-restricted around the residual, matching rule 5/6's
re-capture discipline for systems without an environment — and walk
one bounded explorer, :func:`repro.lts.graph.grow`.  All but
:func:`can_reach_barb` use the duplicate-collapse quotient by default
(sound for reachability; see ``repro.core.canonical``).
"""

from __future__ import annotations

from typing import Callable

from ..calculi.backend import CalculusBackend
from ..core.canonical import canonical_state, canonical_state_collapsed
from ..core.names import Name
from ..core.reduction import has_barb
from ..core.syntax import Process
from ..engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)
from ..engine.verdict import Verdict
from ..lts.graph import LTS, Expand, closed_steps, grow

Predicate = Callable[[Process], bool]

#: Default budget for whole-graph analyses.
DEFAULT_BUDGET = Budget(max_states=50_000)

#: Default budget for :func:`can_reach_barb`.
DEFAULT_REACH_BUDGET = Budget(max_states=100_000)


def _canon(collapse: bool) -> Callable[[Process], Process]:
    return canonical_state_collapsed if collapse else canonical_state


def _closed_lts(lts: LTS, p: Process, meter: Meter, collapse: bool,
                expand: Expand) -> LTS:
    """Grow the whole closed graph of *p* into *lts*.

    Raw-explorer contract: a trip re-raises with the states found so far
    on ``exc.partial``.
    """
    try:
        for _ in grow(lts, (p,), expand, meter, canonical=_canon(collapse)):
            pass
    except BudgetExceeded as exc:
        if lts.states:  # a trip charging the root leaves no prefix
            exc.partial = lts.states
        raise
    return lts


def reachable_states(p: Process, *, budget: Budget | Meter | None = None,
                     collapse: bool = True,
                     calculus: str | CalculusBackend | None = None
                     ) -> list[Process]:
    """All reachable canonical states (BFS, budget-governed).

    Raw-explorer contract: a budget trip raises
    :class:`~repro.engine.budget.BudgetExceeded` with the states found so
    far on ``exc.partial``.
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    return _closed_lts(LTS(), p, meter, collapse,
                       closed_steps(calculus)).states


def find_quiescent(p: Process, *, budget: Budget | Meter | None = None,
                   collapse: bool = True,
                   calculus: str | CalculusBackend | None = None
                   ) -> list[Process]:
    """Reachable states with no autonomous step (deadlocks/termination)."""
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    lts = _closed_lts(LTS(), p, meter, collapse, closed_steps(calculus))
    return [s for s, out in zip(lts.states, lts.edges) if not out]


def can_diverge(p: Process, *, budget: Budget | Meter | None = None,
                collapse: bool = True,
                calculus: str | CalculusBackend | None = None) -> Verdict:
    """Is a tau-only cycle reachable?  (Infinite internal chatter.)

    ``UNKNOWN`` when the reachable set is truncated by the budget — an
    unexplored region may still hide a cycle.
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    try:
        lts = _closed_lts(LTS(), p, meter, collapse, closed_steps(calculus))
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    tau_succ = [lts.successors(sid, tau_only=True)
                for sid in range(lts.n_states)]
    # cycle detection in the tau-subgraph
    WHITE, GREY, BLACK = 0, 1, 2
    colour = [WHITE] * lts.n_states
    for root in range(lts.n_states):
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
                                  evidence=lts.states[nxt])
            if colour[nxt] == WHITE:
                colour[nxt] = GREY
                stack.append((nxt, iter(tau_succ[nxt])))
    return Verdict.of(False, stats=meter.stats())


def can_reach_barb(p: Process, chan: Name, *,
                   budget: Budget | Meter | None = None,
                   collapse_duplicates: bool = False,
                   calculus: str | CalculusBackend | None = None,
                   presolve: bool = True) -> Verdict:
    """Reachability query: can *p* autonomously reach a state barbing *chan*?

    The workhorse behind the paper's examples — e.g. "does the cycle
    detector eventually signal on ``o``?" is ``can_reach_barb(system, 'o')``.
    Treats the system as closed: extruded names are re-restricted and
    states deduplicated up to structural congruence.

    Returns a three-valued :class:`~repro.engine.Verdict`: ``TRUE`` as
    soon as a barbing state is found, ``FALSE`` only when the *complete*
    bounded graph was exhausted without one, and ``UNKNOWN`` when the
    budget tripped first (the number of states examined so far rides
    along as ``verdict.evidence``).

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
        from ..flow.presolve import flow_refutes_barb
        flow_evidence = flow_refutes_barb(p, chan, calculus=calculus)
        if flow_evidence is not None:
            return Verdict.of(False,
                              stats={"states": 0, "presolve": "flow"},
                              evidence=flow_evidence)
    meter = resolve_meter(budget, DEFAULT_REACH_BUDGET)
    lts = LTS()
    explored = 0
    try:
        for sid in grow(lts, (p,), closed_steps(calculus), meter,
                        canonical=_canon(collapse_duplicates)):
            explored += 1
            if has_barb(lts.states[sid], chan):
                return Verdict.of(True, stats=meter.stats(),
                                  evidence=lts.states[sid])
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc, evidence=explored)
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
    expand = closed_steps()
    lts = LTS()
    try:
        _closed_lts(lts, p, meter, collapse, expand)
    except BudgetExceeded as exc:
        # A refutation in the partial graph survives the trip.  A state
        # without edges may just not have been expanded yet: ask again.
        for s, out in zip(lts.states, lts.edges):
            if not out and not expand(s) and not predicate(s):
                return Verdict.of(False, stats=meter.stats(), evidence=s)
        return Verdict.from_exceeded(exc)
    for s, out in zip(lts.states, lts.edges):
        if not out and not predicate(s):
            return Verdict.of(False, stats=meter.stats(), evidence=s)
    return Verdict.of(True, stats=meter.stats())
