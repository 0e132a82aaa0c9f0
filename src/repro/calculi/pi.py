"""A mini pi-calculus — the point-to-point baseline the paper argues against.

Reuses the bpi-calculus AST (same grammar, Table 1 minus nothing) and the
one implementation of the transition rules, :class:`~repro.core.semantics.
Table3`, but gives communication the standard early pi reading: a
*handshake* — one sender, exactly one receiver, producing a ``tau`` —
instead of a broadcast.  Outputs are blocking; a send with no partner
simply waits.  :class:`PiSemantics` overrides the three rules where that
shows and nothing else:

* a parallel composition interleaves its components' moves and adds the
  handshakes, re-restricting the names the output extruded;
* exactly one parallel component receives an input;
* an output on a restricted channel is blocked (no partner can ever reach
  it), where bpi's rule (6) turns it into ``tau``.

Purpose (Section 6 / Remarks of the paper):

* show the (H) "noisy" axiom failing here while holding in bpi;
* show the congruence-property swap: in pi, barbed bisimilarity is
  preserved by restriction but not by parallel composition — in bpi it is
  exactly the other way around (Lemma 3 vs Remark 1);
* serve as the source language for the uniform pi -> bpi encoding
  (:mod:`repro.calculi.encodings`).

π is not a :mod:`~repro.calculi.registry` spec: the labelled and noisy
checkers are built on broadcast's input-or-discard dichotomy, which a
handshake does not have, so only barbed bisimilarity is offered — the
engine's barbed driver run over :data:`PI`.  The instance sits in the
registry's instance table all the same, so ``clear_caches()`` empties its
memo tables.
"""

from __future__ import annotations

from ..core.actions import TAU, OutputAction, TauAction
from ..core.binders import close_extrusion, freshen_action_binders
from ..core.freenames import free_names
from ..core.names import Name
from ..core.syntax import Par, Process
from ..engine.budget import Budget, Meter
from ..engine.verdict import Verdict
from . import registry
from .backend import StructuralBackend, Transition


class PiSemantics(StructuralBackend):
    """Table 3 with handshake communication (the early pi-calculus)."""

    name = "pi"

    def _hide_output(self, x: Name, action: OutputAction,
                     target: Process) -> tuple[Transition, ...]:
        return ()  # blocked: no partner can ever reach the channel

    def _par_steps(self, p: Par) -> list[Transition]:
        moves = []
        for active, passive, rebuild in (
            (p.left, p.right, lambda a, b: Par(a, b)),
            (p.right, p.left, lambda a, b: Par(b, a)),
        ):
            for action, target in self.step_transitions(active):
                if isinstance(action, OutputAction):
                    action, target = freshen_action_binders(
                        action, target, free_names(passive))
                moves.append((action, target, passive, rebuild))
        # interleaving
        out: list[Transition] = [(action, rebuild(target, passive))
                                 for action, target, passive, rebuild in moves]
        # handshakes: one sender + ONE receiver -> tau (the pi difference)
        for action, target, passive, rebuild in moves:
            if isinstance(action, TauAction):
                continue
            for received in self.input_continuations(
                    passive, action.chan, action.objects):
                out.append((TAU, close_extrusion(
                    action, rebuild(target, received))))
        return out

    def _par_inputs(self, p: Par, chan: Name,
                    values: tuple[Name, ...]) -> tuple[Process, ...]:
        # Exactly one component receives; the other is untouched.
        return (tuple(Par(q, p.right)
                      for q in self._deliver(p.left, chan, values))
                + tuple(Par(p.left, q)
                        for q in self._deliver(p.right, chan, values)))


#: The pi semantics, registered in the registry's instance table (under
#: spec ``"pi"``, which :func:`~repro.calculi.registry.resolve` still
#: refuses as a name) so ``clear_caches()`` reaches its memo tables.
PI = registry.resolve(PiSemantics())


def pi_step_transitions(p: Process) -> tuple[Transition, ...]:
    """tau-steps (handshakes) and visible output transitions of *p*."""
    return PI.step_transitions(p)


def pi_input_continuations(p: Process, chan: Name,
                           values: tuple[Name, ...]) -> tuple[Process, ...]:
    """Early input: all p' with ``p -chan(values)-> p'`` (pi rules).

    Unlike broadcast, a parallel composition receives in exactly *one*
    component; the other is untouched.
    """
    return PI.input_continuations(p, chan, values)


def pi_barbs(p: Process) -> frozenset[Name]:
    """Output barbs of *p* under pi semantics."""
    return PI.barbs(p)


def pi_tau_successors(p: Process) -> tuple[Process, ...]:
    return tuple(t for a, t in PI.step_transitions(p)
                 if isinstance(a, TauAction))


def pi_barbed_bisimilar(p: Process, q: Process, *, weak: bool = False,
                        budget: Budget | Meter | None = None) -> Verdict:
    """Barbed bisimilarity under pi semantics (for the comparative tests).

    Returns a three-valued :class:`~repro.engine.Verdict`.
    """
    from ..equiv.barbed import barbed_bisimilar

    return barbed_bisimilar(p, q, weak=weak, budget=budget,
                            strategy="global", calculus=PI)
