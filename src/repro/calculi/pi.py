"""A mini pi-calculus — the point-to-point baseline the paper argues against.

Reuses the bpi-calculus AST (same grammar, Table 1 minus nothing) but gives
it the standard early pi semantics: communication is a *handshake* — one
sender, exactly one receiver, producing a ``tau`` — instead of a broadcast.
Outputs are blocking; a send with no partner simply waits.

Purpose (Section 6 / Remarks of the paper):

* show the (H) "noisy" axiom failing here while holding in bpi;
* show the congruence-property swap: in pi, barbed bisimilarity is
  preserved by restriction but not by parallel composition — in bpi it is
  exactly the other way around (Lemma 3 vs Remark 1);
* serve as the source language for the uniform pi -> bpi encoding
  (:mod:`repro.calculi.encodings`).

Only the machinery needed for those comparisons is implemented: step
enumeration (tau + visible outputs with extrusion), early input
continuations, barbs, and barbed bisimilarity via the shared partition
refinement.
"""

from __future__ import annotations

from functools import lru_cache

from ..core.actions import TAU, Action, OutputAction, TauAction
from ..core.freenames import free_names
from ..core.names import Name, fresh_name
from ..core.binders import freshen_action_binders
from ..core.substitution import apply_subst, canonical_alpha, unfold_rec
from ..core.syntax import (
    Ident,
    Input,
    Match,
    Nil,
    Output,
    Par,
    Process,
    Rec,
    Restrict,
    Sum,
    Tau,
)
from ..engine.budget import Budget, BudgetExceeded, Meter, resolve_meter
from ..engine.verdict import Verdict

Transition = tuple[Action, Process]


@lru_cache(maxsize=65536)
def pi_step_transitions(p: Process) -> tuple[Transition, ...]:
    """tau-steps (handshakes) and visible output transitions of *p*."""
    if isinstance(p, (Nil, Input)):
        return ()
    if isinstance(p, Tau):
        return ((TAU, p.cont),)
    if isinstance(p, Output):
        return ((OutputAction(p.chan, p.args, ()), p.cont),)
    if isinstance(p, Sum):
        return pi_step_transitions(p.left) + pi_step_transitions(p.right)
    if isinstance(p, Match):
        branch = p.then if p.left == p.right else p.orelse
        return pi_step_transitions(branch)
    if isinstance(p, Rec):
        return pi_step_transitions(unfold_rec(p))
    if isinstance(p, Restrict):
        out: list[Transition] = []
        x = p.name
        for action, target in pi_step_transitions(p.body):
            if isinstance(action, TauAction):
                out.append((TAU, Restrict(x, target)))
                continue
            assert isinstance(action, OutputAction)
            if action.chan == x:
                continue  # blocked: no partner can ever reach the channel
            if x in action.binders:
                action, target = freshen_action_binders(
                    action, target, frozenset((x,)))
            if x in action.objects:
                out.append((OutputAction(action.chan, action.objects,
                                         action.binders + (x,)), target))
            else:
                out.append((action, Restrict(x, target)))
        return tuple(out)
    if isinstance(p, Par):
        out = []
        # interleaving
        for action, target in pi_step_transitions(p.left):
            if isinstance(action, OutputAction):
                action, target = freshen_action_binders(
                    action, target, free_names(p.right))
            out.append((action, Par(target, p.right)))
        for action, target in pi_step_transitions(p.right):
            if isinstance(action, OutputAction):
                action, target = freshen_action_binders(
                    action, target, free_names(p.left))
            out.append((action, Par(p.left, target)))
        # handshakes: one sender + ONE receiver -> tau (the pi difference)
        for sender, receiver, build in (
                (p.left, p.right, lambda s, r: Par(s, r)),
                (p.right, p.left, lambda s, r: Par(r, s))):
            for action, s_target in pi_step_transitions(sender):
                if not isinstance(action, OutputAction):
                    continue
                action, s_target = freshen_action_binders(
                    action, s_target, free_names(receiver))
                for r_target in pi_input_continuations(
                        receiver, action.chan, action.objects):
                    combined = build(s_target, r_target)
                    for b in reversed(action.binders):
                        combined = Restrict(b, combined)
                    out.append((TAU, combined))
        return tuple(out)
    if isinstance(p, Ident):
        raise ValueError(f"open process (free identifier {p.ident!r})")
    raise TypeError(f"unknown process node {type(p).__name__}")


@lru_cache(maxsize=65536)
def pi_input_continuations(p: Process, chan: Name,
                           values: tuple[Name, ...]) -> tuple[Process, ...]:
    """Early input: all p' with ``p -chan(values)-> p'`` (pi rules).

    Unlike broadcast, a parallel composition receives in exactly *one*
    component; the other is untouched.
    """
    if isinstance(p, (Nil, Tau, Output)):
        return ()
    if isinstance(p, Input):
        if p.chan != chan or len(p.params) != len(values):
            return ()
        return (apply_subst(p.cont, dict(zip(p.params, values))),)
    if isinstance(p, Sum):
        return (pi_input_continuations(p.left, chan, values)
                + pi_input_continuations(p.right, chan, values))
    if isinstance(p, Match):
        branch = p.then if p.left == p.right else p.orelse
        return pi_input_continuations(branch, chan, values)
    if isinstance(p, Rec):
        return pi_input_continuations(unfold_rec(p), chan, values)
    if isinstance(p, Restrict):
        x, body = p.name, p.body
        if x == chan:
            return ()
        if x in values:
            nx = fresh_name(free_names(body) | set(values) | {chan, x}, hint=x)
            body = apply_subst(body, {x: nx})
            x = nx
        return tuple(Restrict(x, q)
                     for q in pi_input_continuations(body, chan, values))
    if isinstance(p, Par):
        lefts = [Par(q, p.right)
                 for q in pi_input_continuations(p.left, chan, values)]
        rights = [Par(p.left, q)
                  for q in pi_input_continuations(p.right, chan, values)]
        return tuple(lefts + rights)
    if isinstance(p, Ident):
        raise ValueError(f"open process (free identifier {p.ident!r})")
    raise TypeError(f"unknown process node {type(p).__name__}")


def pi_barbs(p: Process) -> frozenset[Name]:
    """Output barbs of *p* under pi semantics."""
    return frozenset(a.chan for a, _ in pi_step_transitions(p)
                     if isinstance(a, OutputAction))


def pi_tau_successors(p: Process) -> tuple[Process, ...]:
    return tuple(t for a, t in pi_step_transitions(p)
                 if isinstance(a, TauAction))


def pi_barbed_bisimilar(p: Process, q: Process, *, weak: bool = False,
                        budget: Budget | Meter | None = None) -> Verdict:
    """Barbed bisimilarity under pi semantics (for the comparative tests).

    Returns a three-valued :class:`~repro.engine.Verdict`.
    """
    from ..lts.graph import LTS, grow
    from ..lts.partition import coarsest_partition
    from ..lts.weak import reachability_closure, weak_keys

    meter = resolve_meter(budget, Budget(max_states=20_000))
    lts = LTS()
    try:
        for _ in grow(lts, (p, q),
                      lambda s: [(None, t) for t in pi_tau_successors(s)],
                      meter, canonical=canonical_alpha):
            pass
        successors = [frozenset(t for _, t in es) for es in lts.edges]
        keys = [pi_barbs(s) for s in lts.states]
        if weak:
            successors = reachability_closure(successors)
            keys = weak_keys(successors, keys)
        block = coarsest_partition(successors, keys, budget=meter)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    rp, rq = (lts.index[canonical_alpha(r)] for r in (p, q))
    return Verdict.of(block[rp] == block[rq], stats=meter.stats())
