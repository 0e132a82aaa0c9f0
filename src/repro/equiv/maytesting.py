"""May-testing for broadcasting processes (the Section 6 outlook).

The paper closes by observing that bisimulations may be *too strong* for
broadcast: ``a!.(b! + c!)`` and ``a!.b! + a!.c!`` are not barbed
equivalent, yet no observer can tell them apart — an observer cannot
refuse a broadcast nor provide "co-actions" that steer the choice.  The
authors defer the study of testing preorders to a forthcoming paper; this
module implements the natural may-testing machinery so the observation is
executable.

* :func:`may_pass` — the classical experiment: compose with an observer
  and ask whether the success channel is reachable;
* :func:`may_preorder_sampled` / :func:`may_equivalent_sampled` — quantify
  over a generated finite observer family (sound for refutation; the
  family includes senders, sequenced listeners and mixed behaviours);
* :func:`output_traces` — bounded output-trace language, the expected
  denotational counterpart for *non-input* processes: in a broadcast
  setting an observer passively hears every output, so may-equivalence on
  output-only processes is trace equality (exercised in the tests).
"""

from __future__ import annotations

from itertools import product

from ..calculi import registry as _registry
from ..core.builder import inp, out
from ..core.freenames import free_names
from ..core.names import Name
from ..core.actions import OutputAction
from ..core.syntax import Par, Process
from ..engine.budget import Budget, Meter, resolve_meter
from ..engine.verdict import Verdict
from ..runtime.analysis import can_reach_barb

SUCCESS = "succ_omega"

#: Default budget for may-testing experiments.
DEFAULT_BUDGET = Budget(max_states=20_000)


def may_pass(p: Process, observer: Process, *, success: Name = SUCCESS,
             budget: Budget | Meter | None = None) -> Verdict:
    """Can ``p | observer`` ever broadcast on the success channel?"""
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    return can_reach_barb(Par(p, observer), success, budget=meter)


def output_traces(p: Process, max_depth: int = 6, *,
                  budget: Budget | Meter | None = None
                  ) -> frozenset[tuple[str, ...]]:
    """The (bounded) output-trace language of *p* over autonomous steps.

    Traces record ``chan<objs>`` strings of the broadcasts along phi-runs
    (taus are invisible); the set is prefix-closed by construction.
    ``max_depth`` is semantic (the language is depth-bounded by
    definition).  Raw-explorer contract: a budget trip raises
    :class:`~repro.engine.budget.BudgetExceeded` with the prefix of the
    language found so far attached to ``exc.partial``, so callers
    comparing two languages can never mistake a truncated set for a
    complete one.
    """
    from ..core.canonical import canonical_state
    from ..engine.budget import BudgetExceeded
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    traces: set[tuple[str, ...]] = {()}
    seen: set[tuple[Process, tuple[str, ...]]] = set()
    stack = [(p, ())]
    try:
        while stack:
            state, trace = stack.pop()
            if len(trace) >= max_depth:
                continue
            key = (canonical_state(state), trace)
            if key in seen:
                continue
            meter.charge()
            seen.add(key)
            for action, target in _registry.default().step_transitions(state):
                if isinstance(action, OutputAction):
                    step = str(action)
                    new_trace = trace + (step,)
                    traces.add(new_trace)
                    stack.append((target, new_trace))
                else:
                    stack.append((target, trace))
    except BudgetExceeded as exc:
        exc.partial = frozenset(traces)
        raise
    return frozenset(traces)


def observer_family(p: Process, q: Process, *, success: Name = SUCCESS,
                    depth: int = 2) -> list[Process]:
    """A finite family of observers over the processes' free names.

    Listeners report what they hear on the success channel (sequenced up
    to *depth*); senders inject messages; mixed observers do one then the
    other.  Arities follow the processes' input capabilities.
    """
    names = sorted(free_names(p) | free_names(q))
    arities = _channel_arities(p, q)

    def listen(chan: Name, cont: Process, tag: int) -> Process:
        k = arities.get(chan, 0)
        return inp(chan, tuple(f"ob{tag}_{i}" for i in range(k)), cont)

    def send(chan: Name, cont: Process) -> Process:
        k = arities.get(chan, 0)
        return out(chan, *(["obv"] * k), cont=cont)

    observers: list[Process] = [out(success)]
    for chan in names:
        observers.append(listen(chan, out(success), 0))
        observers.append(send(chan, out(success)))
    if depth >= 2:
        for c1, c2 in product(names, repeat=2):
            observers.append(listen(c1, listen(c2, out(success), 1), 0))
            observers.append(send(c1, listen(c2, out(success), 0)))
    return observers


def _channel_arities(p: Process, q: Process) -> dict[Name, int]:
    """Arity per channel, inferred from every input/output occurrence."""
    from ..core.syntax import Input, Output, iter_subterms
    arities: dict[Name, int] = {}
    for proc in (p, q):
        for node in iter_subterms(proc):
            if isinstance(node, Input):
                arities.setdefault(node.chan, len(node.params))
            elif isinstance(node, Output):
                arities.setdefault(node.chan, len(node.args))
    return arities


def may_preorder_sampled(p: Process, q: Process, *, success: Name = SUCCESS,
                         observers: list[Process] | None = None,
                         budget: Budget | Meter | None = None,
                         witness: list | None = None) -> Verdict:
    """``p <=may q`` over the sampled observer family: every experiment p
    may pass, q may pass too.  Refutation-sound; any UNKNOWN experiment
    makes the whole preorder UNKNOWN (the observer rides as evidence)."""
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    obs = observers if observers is not None else observer_family(p, q,
                                                                  success=success)
    for o in obs:
        vp = may_pass(p, o, success=success, budget=meter)
        if vp.is_unknown:
            return Verdict.unknown(vp.reason or "max-states",
                                   stats=meter.stats(), evidence=o)
        if vp.is_false:
            continue
        vq = may_pass(q, o, success=success, budget=meter)
        if vq.is_unknown:
            return Verdict.unknown(vq.reason or "max-states",
                                   stats=meter.stats(), evidence=o)
        if vq.is_false:
            if witness is not None:
                witness.append(o)
            return Verdict.of(False, stats=meter.stats(), evidence=o)
    return Verdict.of(True, stats=meter.stats())


def may_equivalent_sampled(p: Process, q: Process, **kw) -> Verdict:
    """Sampled may-testing equivalence (Kleene conjunction)."""
    forward = may_preorder_sampled(p, q, **kw)
    if forward.is_false:
        return forward
    return forward & may_preorder_sampled(q, p, **kw)
