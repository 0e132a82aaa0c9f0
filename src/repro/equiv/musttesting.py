"""Must-testing for broadcasting processes (testing-theory extension).

``p must O``: *every* maximal autonomous run of ``p | O`` reaches a state
offering the success broadcast.  Failure modes: a quiescent composite that
never succeeded, or a divergence (a reachable cycle) avoiding success.

Decided exactly on the bounded graph of exact canonical states
(``canonical_state``, multiplicities kept): success states are absorbing;
the experiment fails iff the non-success subgraph reachable from the
start contains a dead end or a cycle.  Collapsing duplicate components
would be unsound in both directions: ``a! | a!`` must pass
``a?.a?.succ_omega!`` (both broadcasts fire and the observer hears
both), but its collapsed state ``a!`` leaves the observer stuck.

The broadcast twist mirrors may-testing's: observers cannot refuse
broadcasts, so ``a!.(b! + c!) must (hear a; hear b; succeed)`` fails while
the may-variant passes — internal choice is visible to must, invisible to
may (both directions are exercised in the tests).
"""

from __future__ import annotations

from ..core.canonical import canonical_state
from ..core.names import Name
from ..core.reduction import barbs, step_successors_closed
from ..core.syntax import Par, Process
from ..engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)
from ..engine.verdict import Verdict
from .maytesting import SUCCESS, observer_family

#: Default budget for must-testing experiments.
DEFAULT_BUDGET = Budget(max_states=20_000)


def must_pass(p: Process, observer: Process, *, success: Name = SUCCESS,
              budget: Budget | Meter | None = None) -> Verdict:
    """Does every maximal run of ``p | observer`` reach a *success* state?

    Must-verdicts cannot be truncated soundly in either direction, so a
    budget trip yields ``UNKNOWN`` — a FALSE needs a witnessed failing
    run, a TRUE needs the whole graph.
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    try:
        flag = _must_pass(p, observer, success, meter)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(flag, stats=meter.stats())


def _must_pass(p: Process, observer: Process, success: Name,
               meter: Meter) -> bool:
    start = canonical_state(Par(p, observer))
    meter.charge()
    if success in barbs(start):
        return True
    # DFS over the non-success subgraph; any cycle or dead end = failure.
    WHITE, GREY, BLACK = 0, 1, 2
    colour: dict[Process, int] = {start: GREY}
    stack: list[tuple[Process, list[Process], int]] = []

    def expand(state: Process) -> list[Process]:
        out = []
        for t in step_successors_closed(state):
            out.append(canonical_state(t))
        return out

    succs = expand(start)
    if not succs:
        return False  # quiescent, never succeeded
    stack.append((start, succs, 0))
    while stack:
        meter.tick()
        state, succs, idx = stack.pop()
        if idx >= len(succs):
            colour[state] = BLACK
            continue
        stack.append((state, succs, idx + 1))
        nxt = succs[idx]
        if success in barbs(nxt):
            continue  # success is absorbing: this branch passed
        c = colour.get(nxt, WHITE)
        if c == GREY:
            return False  # divergence avoiding success
        if c == BLACK:
            continue
        meter.charge()
        colour[nxt] = GREY
        nxt_succs = expand(nxt)
        if not nxt_succs:
            return False  # dead end without success
        stack.append((nxt, nxt_succs, 0))
    return True


def must_preorder_sampled(p: Process, q: Process, *, success: Name = SUCCESS,
                          observers: list[Process] | None = None,
                          budget: Budget | Meter | None = None,
                          witness: list | None = None) -> Verdict:
    """``p <=must q`` over the sampled observer family.

    Any UNKNOWN experiment makes the sampled preorder UNKNOWN (the
    experiment's observer rides along as evidence); all experiments draw
    from one shared meter.
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    obs = observers if observers is not None else observer_family(
        p, q, success=success)
    for o in obs:
        vp = must_pass(p, o, success=success, budget=meter)
        if vp.is_unknown:
            return Verdict.unknown(vp.reason or "max-states",
                                   stats=meter.stats(), evidence=o)
        if vp.is_false:
            continue
        vq = must_pass(q, o, success=success, budget=meter)
        if vq.is_unknown:
            return Verdict.unknown(vq.reason or "max-states",
                                   stats=meter.stats(), evidence=o)
        if vq.is_false:
            if witness is not None:
                witness.append(o)
            return Verdict.of(False, stats=meter.stats(), evidence=o)
    return Verdict.of(True, stats=meter.stats())


def must_equivalent_sampled(p: Process, q: Process, **kw) -> Verdict:
    """Sampled must-testing equivalence (Kleene conjunction)."""
    forward = must_preorder_sampled(p, q, **kw)
    if forward.is_false:
        return forward
    return forward & must_preorder_sampled(q, p, **kw)
