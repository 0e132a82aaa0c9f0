"""The noisy relation ``~+`` (Definition 11) and its weak variant (Def. 15).

``~+`` is the *one-step strict* unfolding of labelled bisimilarity: first
actions must be matched **exactly** — tau by tau, outputs by (binder-
aligned) outputs, and genuine inputs by genuine inputs — with the successor
pairs related by full ``~`` (where the noisy input-or-discard matching
lives).  This is what makes Remark 4 work out:

* ``a?.0 ~ b?.0`` (receiving and ignoring is invisible to ``~``), but
  ``a?.0 !~+ b?.0`` — the input on ``a`` has no matching input; hence
  ``~+`` is strictly finer than ``~``;
* ``~+`` is preserved by ``+``, ``nu`` and ``||`` (unlike ``~``), so its
  substitution closure ``~c`` is a congruence (Theorem 2);
* the gap between ``~+`` and ``~`` is exactly the (H) axiom: after a
  common prefix, successors may again be matched noisily.

The weak variant (Definition 15) matches with ``==> alpha ==>`` answers,
with two classical refinements the congruence theorems force (the paper's
clause statements are terse; these readings are validated by the
closure-under-operators tests):

* clause 1 is the *root condition*: a tau must be answered by at least one
  tau (``q ==> tau ==> q'``), or ``tau.p = p`` would hold and ``+``
  contexts would break Theorem 4;
* clause 4: a channel discarded by one side must be *weakly discardable*
  by the other (``q ==> q1`` with ``q1`` discarding it) — the weak
  counterpart of the strict input matching.

Naming note: "noisy" here is the *paper's* word for the input-or-discard
matching discipline, not a loss model — the calculus stays perfectly
reliable.  Since the lossy backend (Cao's noisy *channels*) entered the
registry the overload became untenable, so the checker is named
:func:`strict_bisimilar` (it is the one-step *strict* relation) and is
parameterised by backend.
"""

from __future__ import annotations

from ..calculi import registry as _registry
from ..calculi.backend import CalculusBackend
from ..core.freenames import free_names
from ..core.syntax import Process
from ..engine.budget import Budget, BudgetExceeded, Meter, resolve_meter
from ..engine.verdict import Verdict
from .labelled import (
    DEFAULT_BUDGET,
    _canonicalize_output,
    _io_subjects,
    _LabelledGame,
    _outputs,
    _pair_universe,
    _tau_closure,
    _taus,
    labelled_bisimilar,
)


def strict_bisimilar(p: Process, q: Process, *, weak: bool = False,
                     budget: Budget | Meter | None = None,
                     calculus: str | CalculusBackend | None = None) -> Verdict:
    """Decide ``p ~+ q`` (or the weak ``p ~~+ q``).

    All the per-successor ``~`` sub-checks draw from one shared meter, so
    the whole check is governed by a single budget; a trip anywhere
    yields ``UNKNOWN``.  *calculus* selects the broadcast semantics via
    :mod:`repro.calculi.registry` (default: the paper's ``"bpi"``).
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    backend = _registry.resolve(calculus)
    try:
        flag = _strict_bisimilar(p, q, weak=weak, meter=meter,
                                 backend=backend)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(flag, stats=meter.stats())


def _strict_bisimilar(p: Process, q: Process, *, weak: bool, meter: Meter,
                      backend: CalculusBackend) -> bool:
    game = _LabelledGame(weak, meter, backend=backend)

    def related(a: Process, b: Process) -> bool:
        # bool() on an UNKNOWN sub-verdict raises IndeterminateVerdict (a
        # BudgetExceeded), unwinding the whole check to UNKNOWN.
        return bool(labelled_bisimilar(a, b, weak=weak, budget=meter,
                                       calculus=backend))

    def answer_inputs_strict(y: Process, chan, values) -> list[Process]:
        """Genuine-input answers only (strict clause 3)."""
        if not weak:
            return list(backend.input_continuations(y, chan, values))
        answers: list[Process] = []
        for y1 in _tau_closure(y, meter, backend):
            for y2 in backend.input_continuations(y1, chan, values):
                answers.extend(_tau_closure(y2, meter, backend))
        return answers

    for x, y, flip in ((p, q, False), (q, p, True)):
        def ok(a: Process, b: Process, _flip=flip) -> bool:
            return related(b, a) if _flip else related(a, b)

        fn_pair = free_names(x) | free_names(y)
        # Clause 1: tau by tau.  In the weak case the answer must contain
        # AT LEAST ONE tau (q ==> tau ==> q') — the classical root
        # condition: with a zero-tau answer allowed, ``tau.p = p`` would
        # hold and choice contexts would break the congruence (Theorem 4).
        if weak:
            y_taus = [q2
                      for q1 in _tau_closure(y, meter, backend)
                      for t in _taus(q1, backend)
                      for q2 in _tau_closure(t, meter, backend)]
        else:
            y_taus = _taus(y, backend)
        for x1 in _taus(x, backend):
            if not any(ok(x1, y1) for y1 in y_taus):
                return False
        # Clause 2: outputs by binder-aligned outputs.
        for action, x1 in _outputs(x, backend):
            ref, x1c = _canonicalize_output(action, x1, fn_pair)
            answers = game._answer_outputs(y, ref, fn_pair)
            if not any(ok(x1c, y1) for y1 in answers):
                return False
        # Clause 3 (strict): genuine inputs by genuine inputs.
        for chan, arity in _io_subjects(x, y, backend):
            for values in _pair_universe(x, y, arity):
                x_moves = backend.input_continuations(x, chan, values)
                if not x_moves:
                    continue
                answers = answer_inputs_strict(y, chan, values)
                for x1 in x_moves:
                    if not any(ok(x1, y1) for y1 in answers):
                        return False
        # Clause 4 (weak only): discards matched by weak discards.
        if weak:
            for chan in sorted(backend.listening_channels(y)
                               - backend.listening_channels(x)):
                if backend.discards(x, chan) and not any(
                        backend.discards(y1, chan)
                        for y1 in _tau_closure(y, meter, backend)):
                    return False
    return True
