"""Lossy broadcast: per-listener delivery failure (Cao, arXiv:0801.3117).

In the pi-calculus with noisy channels, a broadcast still happens
atomically, but delivery to **each** listener may independently fail.
Syntactically nothing changes — same terms, same discard relation (Table
2), same barbs.  Semantically, the delivery judgement grows one residual
per listener: the listener itself, unchanged, modelling "the message was
lost on the way to this receiver".

Concretely, where the reliable rule (13) forces the passive side of a
parallel composition to receive, the lossy rule lets every *subset* of
the reachable receivers miss the message: for ``a!.0 | (a?.P | a?.Q)``
the broadcast on ``a`` has four residuals — both receive, only the left,
only the right, neither.  A top-level input transition likewise includes
the pure-loss move ``p -a(v)-> p``.

The input/discard dichotomy survives: a listener now has *more* input
transitions (including the loss move), a non-listener still discards.

The induced bisimilarity is **incomparable** with the reliable one — the
hierarchy is strict in both directions (checked in the suite):

* lossy equates, reliable separates: ``a(x).c! ~ a(x).c! + a(x).a(x).c!``
  — the extra "needs two messages" branch is indistinguishable when any
  message may be lost, but reliable bisimilarity sees the second input
  commit to a state with no ``c`` barb.
* reliable equates, lossy separates: ``a?.c! | a?.d! ~ a?.(c! | d!)`` —
  reliable broadcast is atomic, so both reach ``c! | d!`` in one input;
  lossy delivery can reach the partial ``c! | a?.d!``, which the
  right-hand process can never exhibit.
"""

from __future__ import annotations

from ..core.names import Name
from ..core.syntax import Par, Process
from .backend import StructuralBackend


class LossyBackend(StructuralBackend):
    """The paper's calculus with per-listener message loss.

    Table 3 verbatim except for how a listener takes a broadcast: loss
    does not change who is listening (Table 2 stands), it only adds, for
    each listener, the residual where the message never arrived.
    """

    name = "lossy"

    def input_continuations(self, p: Process, chan: Name,
                            values: tuple[Name, ...]) -> tuple[Process, ...]:
        if self.discards(p, chan):
            return ()
        # A listener's delivery options: every genuine (at least one
        # component received) residual, plus total loss — p unchanged.
        return self._deliver(p, chan, values) + (p,)

    def _par_inputs(self, p: Par, chan: Name,
                    values: tuple[Name, ...]) -> tuple[Process, ...]:
        # Each side independently receives or loses the message; a side
        # that is not listening stays put.  Every option list ends with
        # the side unchanged, so the last combination is the one where no
        # side received: that is total loss, added once at the top.
        lefts = self.input_continuations(p.left, chan, values) or (p.left,)
        rights = self.input_continuations(p.right, chan, values) or (p.right,)
        return tuple(Par(l, r) for l in lefts for r in rights)[:-1]
