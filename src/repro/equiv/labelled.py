"""Labelled bisimilarity (Definitions 7 and 8).

A symmetric S is a **strong bisimulation** when, for (p, q) in S:

1. p -tau-> p'                    implies q -tau-> q'            , (p',q') in S
2. p -nu b~ a<c~>-> p', b~ fresh  implies q -same action-> q'    , (p',q') in S
   (free outputs are the b~ = {} case)
3. p -a(b~)?-> p'                 implies q -a(b~)?-> q'         , (p',q') in S

where ``-a(b~)?->`` is *input-or-discard*: either a genuine early input or,
when the process discards a, the identity move.  Clause 3 is the broadcast
signature: a process that ignores a message may be matched by one that
receives it and stays equivalent ("noisy" matching).

The **weak** version answers with ``==> alpha ==>`` (and ``==>`` for tau);
the input-or-discard answer is ``==> -a(b~)?-> ==>``.

Checking is a greatest-fixpoint game over pairs (see :mod:`.game`).  Per
pair, extruded names are canonicalized to the first ``_e<i>`` names fresh
for both sides, and input vectors range over fn(pair) plus as many fresh
``_f<i>`` names as the input arity — the standard finitization, complete on
the image-finite fragment the paper's Theorem 1 addresses.
"""

from __future__ import annotations

from itertools import count, product

from ..calculi import registry as _registry
from ..calculi.backend import CalculusBackend
from ..core.actions import OutputAction, TauAction
from ..core.binders import freshen_action_binders
from ..core.canonical import canonical_state
from ..core.freenames import free_names
from ..core.names import Name
from ..core.substitution import apply_subst
from ..core.syntax import Process
from ..engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)
from ..engine.verdict import Verdict
from ..lts.weak import LazyReach
from ..obs import metrics as _metrics, tracing as _tracing
from ..obs.state import STATE as _OBS
from .game import DEFAULT_MAX_PAIRS, solve_game
from .onthefly import (
    DEFAULT_CLOSURES,
    Closure,
    explore_product,
    validate_strategy,
)
from .reduction_graph import phi_successors

#: Cap on distinct fresh names offered per input position.
MAX_FRESH_PER_INPUT = 3

PairKey = tuple[Process, Process]

#: One state's outputs: ``(shape, action, target)`` in step order, and the
#: ``(action, target)`` moves of each shape in the same order.
_OutputIndex = tuple[list[tuple[tuple, OutputAction, Process]],
                     dict[tuple, list[tuple[OutputAction, Process]]]]


def _pair_key(p: Process, q: Process) -> PairKey:
    return (canonical_state(p), canonical_state(q))


def _canonical_binder_names(n: int, avoid: frozenset[Name]) -> tuple[Name, ...]:
    names = []
    it = (f"_e{i}" for i in count())
    for _ in range(n):
        name = next(x for x in it if x not in avoid)
        names.append(name)
    return tuple(names)


def _canonicalize_output(action: OutputAction, target: Process,
                         avoid: frozenset[Name]) -> tuple[OutputAction, Process]:
    """Rename binders to canonical ``_e<i>`` names fresh for *avoid*."""
    if not action.binders:
        return action, target
    # First move binders out of the way of the canonical names and avoid.
    action, target = freshen_action_binders(action, target, avoid)
    canon = _canonical_binder_names(
        len(action.binders), avoid | set(action.objects))
    mapping = dict(zip(action.binders, canon))
    new_action = OutputAction(action.chan,
                              tuple(mapping.get(o, o) for o in action.objects),
                              canon)
    return new_action, apply_subst(target, mapping)


def _output_shape(action: OutputAction) -> tuple:
    """Label shape with binder occurrences abstracted positionally."""
    idx = {b: i for i, b in enumerate(action.binders)}
    return (action.chan, tuple(
        ("bound", idx[o]) if o in idx else ("free", o) for o in action.objects))


def _outputs(p: Process,
             backend: CalculusBackend) -> list[tuple[OutputAction, Process]]:
    return [(a, t) for a, t in backend.step_transitions(p)
            if isinstance(a, OutputAction)]


def _taus(p: Process, backend: CalculusBackend) -> list[Process]:
    return [t for a, t in backend.step_transitions(p)
            if isinstance(a, TauAction)]


def _align_output(action: OutputAction, target: Process,
                  reference: OutputAction) -> Process:
    """*target* with its binders renamed to the reference's.

    Callers pair *action* only with a *reference* of the same
    :func:`_output_shape`, so the binders correspond position by position.
    """
    if not reference.binders:
        return target
    action, target = freshen_action_binders(
        action, target, frozenset(reference.binders))
    mapping = dict(zip(action.binders, reference.binders))
    return apply_subst(target, mapping)


def _input_moves(p: Process, chan: Name, values: tuple[Name, ...],
                 backend: CalculusBackend) -> list[Process]:
    """The ``-chan(values)?->`` moves: early inputs plus the discard-move."""
    moves = list(backend.input_continuations(p, chan, values))
    if backend.discards(p, chan):
        moves.append(p)
    return moves


def _tau_closure(p: Process, meter: Meter,
                 backend: CalculusBackend) -> tuple[Process, ...]:
    """All q with p ==> q, each member charged against *meter*'s pool."""
    seen = {canonical_state(p): p}
    stack = [p]
    while stack:
        meter.tick()
        q = stack.pop()
        for t in _taus(q, backend):
            key = canonical_state(t)
            if key not in seen:
                meter.charge()
                seen[key] = t
                stack.append(t)
    return tuple(seen.values())


def _pair_universe(p: Process, q: Process, arity: int) -> list[tuple[Name, ...]]:
    """Input vectors to offer the pair: fn(p,q) plus fresh names."""
    known = sorted(free_names(p) | free_names(q))
    n_fresh = min(arity, MAX_FRESH_PER_INPUT)
    fresh = []
    it = (f"_f{i}" for i in count())
    while len(fresh) < n_fresh:
        cand = next(it)
        if cand not in known:
            fresh.append(cand)
    return list(product(known + fresh, repeat=arity))


def _io_subjects(p: Process, q: Process,
                 backend: CalculusBackend) -> list[tuple[Name, int]]:
    """(channel, arity) pairs on which at least one side is listening."""
    return sorted(backend.input_capabilities(p) | backend.input_capabilities(q))


class _LabelledGame:
    """Challenge generator shared by the strong and weak checkers.

    All tau-closure members computed for weak answers charge the shared
    *meter* — one unified pool across pair exploration and saturation.
    With ``lazy=True`` (the on-the-fly strategy) saturation goes through
    one memoised :class:`~repro.lts.weak.LazyReach`, so each distinct
    state charges the pool once per run; the global oracle keeps the
    historical per-call accounting so its budget semantics — and the
    regression baselines built on them — stay put.

    A per-search output index spares the output clause its rescans: each
    state's outputs are listed once, in step order, with their
    :func:`_output_shape`, and grouped by that shape, so an output
    challenge is answered only by the moves of its own shape.
    """

    def __init__(self, weak: bool, meter: Meter, *, lazy: bool = False,
                 backend: CalculusBackend | None = None):
        self.weak = weak
        self.meter = meter
        self.backend = _registry.resolve(backend)
        self._reach: LazyReach[Process] | None = (
            LazyReach(lambda s: phi_successors(s, steps=False,
                                               backend=self.backend), meter)
            if (weak and lazy) else None)
        self._outputs: dict[Process, _OutputIndex] = {}

    def tau_closure(self, p: Process) -> tuple[Process, ...]:
        if self._reach is not None:
            return self._reach.reach(canonical_state(p))
        return _tau_closure(p, self.meter, self.backend)

    def outputs(self, p: Process) -> _OutputIndex:
        """*p*'s ``(moves, by_shape)`` index, built on the first request."""
        index = self._outputs.get(p)
        if index is None:
            moves: list[tuple[tuple, OutputAction, Process]] = []
            by_shape: dict[tuple, list[tuple[OutputAction, Process]]] = {}
            for action, target in _outputs(p, self.backend):
                shape = _output_shape(action)
                moves.append((shape, action, target))
                by_shape.setdefault(shape, []).append((action, target))
            index = self._outputs[p] = (moves, by_shape)
        return index

    # --- weak answer machinery ------------------------------------------
    def _answer_taus(self, q: Process) -> list[Process]:
        if not self.weak:
            return _taus(q, self.backend)
        return list(self.tau_closure(q))

    def _answer_outputs(self, q: Process, reference: OutputAction,
                        shape: tuple) -> list[Process]:
        """All q' answering the output challenge *reference*, whose
        :func:`_output_shape` is *shape*."""
        answers: list[Process] = []
        starts = self.tau_closure(q) if self.weak else (q,)
        for q1 in starts:
            for action, q2 in self.outputs(q1)[1].get(shape, ()):
                aligned = _align_output(action, q2, reference)
                if self.weak:
                    answers.extend(self.tau_closure(aligned))
                else:
                    answers.append(aligned)
        return answers

    def _answer_inputs(self, q: Process, chan: Name,
                       values: tuple[Name, ...]) -> list[Process]:
        """All q' answering the input-or-discard challenge."""
        if not self.weak:
            return _input_moves(q, chan, values, self.backend)
        answers: list[Process] = []
        for q1 in self.tau_closure(q):
            for q2 in _input_moves(q1, chan, values, self.backend):
                answers.extend(self.tau_closure(q2))
        return answers

    # --- challenges ------------------------------------------------------
    def challenges(self, key: PairKey) -> list[list[PairKey]]:
        p, q = key
        out: list[list[PairKey]] = []
        for x, y, mk in ((p, q, lambda a, b: _pair_key(a, b)),
                         (q, p, lambda a, b: _pair_key(b, a))):
            out.extend(self._one_sided(x, y, mk))
        return out

    def _one_sided(self, x: Process, y: Process, mk) -> list[list[PairKey]]:
        chals: list[list[PairKey]] = []
        fn_pair = free_names(x) | free_names(y)
        # Clause 1: tau challenges.
        y_taus = None
        for x1 in _taus(x, self.backend):
            if y_taus is None:
                y_taus = self._answer_taus(y)
            chals.append([mk(x1, y1) for y1 in y_taus])
        # Clause 2: output challenges (free outputs are binderless).
        # Canonical binders keep the shape, so it keys the answers as is.
        for shape, action, x1 in self.outputs(x)[0]:
            ref, x1 = _canonicalize_output(action, x1, fn_pair)
            answers = self._answer_outputs(y, ref, shape)
            chals.append([mk(x1, y1) for y1 in answers])
        # Clause 3: input-or-discard challenges.
        for chan, arity in _io_subjects(x, y, self.backend):
            for values in _pair_universe(x, y, arity):
                x_moves = _input_moves(x, chan, values, self.backend)
                if not x_moves:
                    # x neither receives nor discards at this arity
                    # (cross-sorted pair): x has no a(b~)? move to answer.
                    continue
                answers = self._answer_inputs(y, chan, values)
                for x1 in x_moves:
                    chals.append([mk(x1, y1) for y1 in answers])
        return chals


#: Default budget for the labelled checkers: one pool for game pairs and
#: weak tau-closure members alike.
DEFAULT_BUDGET = Budget(max_states=DEFAULT_MAX_PAIRS)


def labelled_bisimilar(p: Process, q: Process, *, weak: bool = False,
                       budget: Budget | Meter | None = None,
                       strategy: str = "onthefly",
                       closures: "tuple[Closure, ...] | None" = None,
                       calculus: str | CalculusBackend | None = None,
                       ) -> Verdict:
    """Decide strong (``p ~ q``) or weak (``p ~~ q``) labelled bisimilarity.

    Returns a three-valued :class:`~repro.engine.Verdict`: ``UNKNOWN``
    (never a definite answer) when the budget trips before the pair game
    is fully explored.  *strategy* picks the core: ``"onthefly"`` (the
    default) decides pair by pair with up-to *closures* and exits early;
    ``"global"`` runs the eager fixpoint game, kept as the test oracle.
    *calculus* selects the broadcast semantics the clauses quantify over
    (default: the paper's ``"bpi"`` backend).
    """
    validate_strategy(strategy)
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    game = _LabelledGame(weak, meter, lazy=(strategy == "onthefly"),
                         backend=_registry.resolve(calculus))
    cache: dict[PairKey, list[list[PairKey]]] = {}

    def challenges_of(key: PairKey) -> list[list[PairKey]]:
        got = cache.get(key)
        if got is None:
            got = game.challenges(key)
            cache[key] = got
            if _OBS.enabled:
                _metrics.inc("equiv.challenge_sets")
                _metrics.inc("equiv.challenges", len(got))
        return got

    with _tracing.span("equiv.labelled", weak=weak, strategy=strategy) as sp:
        try:
            if strategy == "onthefly":
                flag = explore_product(
                    _pair_key(p, q), challenges_of,
                    closures=DEFAULT_CLOSURES if closures is None
                    else closures,
                    budget=meter)
            else:
                flag = solve_game(_pair_key(p, q), challenges_of,
                                  budget=meter)
        except BudgetExceeded as exc:
            sp.set(verdict="unknown")
            return Verdict.from_exceeded(exc)
        sp.set(verdict=flag)
    return Verdict.of(flag, stats=meter.stats())


def strong_bisimilar(p: Process, q: Process, **kw) -> Verdict:
    """``p ~ q`` (Definition 8)."""
    return labelled_bisimilar(p, q, weak=False, **kw)


def weak_bisimilar(p: Process, q: Process, **kw) -> Verdict:
    """``p ~~ q`` (Definition 7)."""
    return labelled_bisimilar(p, q, weak=True, **kw)
