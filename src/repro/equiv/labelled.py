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
from typing import Iterable

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

#: One state's move table: its tau targets in step order, its outputs as
#: ``(shape, action, target)`` in step order, and the ``(action, target)``
#: moves of each shape in the same order.
_MoveTable = tuple[tuple[Process, ...],
                   list[tuple[tuple, OutputAction, Process]],
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


def _move_table(p: Process, backend: CalculusBackend) -> _MoveTable:
    """*p*'s ``(taus, outputs, by_shape)`` table.

    The table depends on *p* and *backend* alone and charges nothing, so
    it is the per-state backend memo ``"labelled-moves"``: built on the
    first request for *p* in a session, read by every later search, and
    emptied by ``clear_caches()``.  Grouping the outputs by
    :func:`_output_shape` lets an output challenge be answered only by
    the moves of its own shape.
    """
    memo = backend.memo("labelled-moves")
    table = memo.get(p)
    if table is None:
        taus: list[Process] = []
        outputs: list[tuple[tuple, OutputAction, Process]] = []
        by_shape: dict[tuple, list[tuple[OutputAction, Process]]] = {}
        for action, target in backend.step_transitions(p):
            if isinstance(action, TauAction):
                taus.append(target)
            elif isinstance(action, OutputAction):
                shape = _output_shape(action)
                outputs.append((shape, action, target))
                by_shape.setdefault(shape, []).append((action, target))
        table = memo[p] = (tuple(taus), outputs, by_shape)
    return table


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
        for t in _move_table(q, backend)[0]:
            key = canonical_state(t)
            if key not in seen:
                meter.charge()
                seen[key] = t
                stack.append(t)
    return tuple(seen.values())


def _pair_universe(known: list[Name], arity: int) -> list[tuple[Name, ...]]:
    """Input vectors to offer a pair whose free names, sorted, are
    *known*: those names plus fresh ones."""
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


#: One pair's input challenges: ``(chan, values, x_moves, y_moves)`` for
#: each input vector offered, in subject then universe order.
_Inputs = list[tuple[Name, tuple[Name, ...], list[Process], list[Process]]]


class _LabelledGame:
    """Challenge generator shared by the strong and weak checkers.

    All tau-closure members computed for weak answers charge the shared
    *meter* — one unified pool across pair exploration and saturation.
    With ``lazy=True`` (the on-the-fly strategy) saturation goes through
    one memoised :class:`~repro.lts.weak.LazyReach`, so each distinct
    state charges the pool once per run; the global oracle keeps the
    historical per-call accounting so its budget semantics — and the
    regression baselines built on them — stay put.

    Each state's moves come from its :func:`_move_table`, which outlives
    the search.
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

    def tau_closure(self, p: Process) -> tuple[Process, ...]:
        if self._reach is not None:
            return self._reach.reach(canonical_state(p))
        return _tau_closure(p, self.meter, self.backend)

    # --- weak answer machinery ------------------------------------------
    def _answer_outputs(self, q: Process, reference: OutputAction,
                        shape: tuple) -> list[Process]:
        """All q' answering the output challenge *reference*, whose
        :func:`_output_shape` is *shape*."""
        answers: list[Process] = []
        starts = self.tau_closure(q) if self.weak else (q,)
        for q1 in starts:
            by_shape = _move_table(q1, self.backend)[2]
            for action, q2 in by_shape.get(shape, ()):
                aligned = _align_output(action, q2, reference)
                if self.weak:
                    answers.extend(self.tau_closure(aligned))
                else:
                    answers.append(aligned)
        return answers

    def _answer_inputs(self, q: Process, chan: Name,
                       values: tuple[Name, ...]) -> list[Process]:
        """All q' weakly answering the input-or-discard challenge (a
        strong answer is q's own input-or-discard move)."""
        answers: list[Process] = []
        for q1 in self.tau_closure(q):
            for q2 in _input_moves(q1, chan, values, self.backend):
                answers.extend(self.tau_closure(q2))
        return answers

    # --- challenges ------------------------------------------------------
    def challenges(self, key: PairKey) -> list[list[PairKey]]:
        """The challenges of both sides of *key*: p's moves, then q's.

        The pair's free names and input offers are worked out once for
        both directions, and so are the input moves of each side, which
        in the strong game are also the other side's answers.
        """
        p, q = key
        fn_pair = free_names(p) | free_names(q)
        inputs = self._inputs(p, q, fn_pair)
        out = self._one_sided(p, q, False, fn_pair, inputs)
        out += self._one_sided(q, p, True, fn_pair,
                               [(c, v, ym, xm) for c, v, xm, ym in inputs])
        return out

    def _inputs(self, p: Process, q: Process,
                fn_pair: frozenset[Name]) -> _Inputs:
        """``(chan, values, p_moves, q_moves)`` for each input the pair is
        offered: its subjects, each over the universe of its arity."""
        known = sorted(fn_pair)
        universes: dict[int, list[tuple[Name, ...]]] = {}
        inputs: _Inputs = []
        for chan, arity in _io_subjects(p, q, self.backend):
            universe = universes.get(arity)
            if universe is None:
                universe = universes[arity] = _pair_universe(known, arity)
            for values in universe:
                inputs.append((
                    chan, values,
                    _input_moves(p, chan, values, self.backend),
                    _input_moves(q, chan, values, self.backend)))
        return inputs

    def _one_sided(self, x: Process, y: Process, flip: bool,
                   fn_pair: frozenset[Name],
                   inputs: _Inputs) -> list[list[PairKey]]:
        """x's challenges, each answered by y, with x's side first in the
        candidate pairs unless *flip*.  *inputs* is :meth:`_inputs` of
        ``(x, y)``."""

        def pairs(x1: Process, answers: Iterable[Process]) -> list[PairKey]:
            c1 = canonical_state(x1)
            if flip:
                return [(canonical_state(y1), c1) for y1 in answers]
            return [(c1, canonical_state(y1)) for y1 in answers]

        chals: list[list[PairKey]] = []
        taus, outputs, _ = _move_table(x, self.backend)
        # Clause 1: tau challenges.
        if taus:
            y_taus = (self.tau_closure(y) if self.weak
                      else _move_table(y, self.backend)[0])
            for x1 in taus:
                chals.append(pairs(x1, y_taus))
        # Clause 2: output challenges (free outputs are binderless).
        # Canonical binders keep the shape, so it keys the answers as is.
        for shape, action, x1 in outputs:
            ref, x1 = _canonicalize_output(action, x1, fn_pair)
            chals.append(pairs(x1, self._answer_outputs(y, ref, shape)))
        # Clause 3: input-or-discard challenges.
        for chan, values, x_moves, y_moves in inputs:
            if not x_moves:
                # x neither receives nor discards at this arity
                # (cross-sorted pair): x has no a(b~)? move to answer.
                continue
            if self.weak:
                y_moves = self._answer_inputs(y, chan, values)
            for x1 in x_moves:
                chals.append(pairs(x1, y_moves))
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
