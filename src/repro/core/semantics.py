"""Early operational semantics of the bpi-calculus (Table 3 of the paper).

The LTS is factored into two judgements, mirroring how the rules use them:

* :func:`step_transitions` enumerates the *autonomous* moves ``p -phi-> p'``
  where ``phi`` is an output or ``tau`` — these never need environment
  participation and are finitely branching.

* :func:`input_continuations` computes the continuations of the early input
  ``p -a(v~)-> p'`` for one *concrete* received vector ``v~``.  The early
  rule (3) branches over all name vectors, so enumeration is delegated to
  the exploration layer, which instantiates over a finite
  :class:`~repro.core.names.NameUniverse`.

Broadcast is what makes the parallel rules (12)-(14) unusual:

* an output is matched against **every** parallel component: a component
  listening on the subject *must* receive (rule 13), one not listening is
  left unchanged (rule 14) — so a single send can have many receivers;
* outputs stay observable under composition; they become ``tau`` only when
  the subject channel is restricted (rule 6), which also re-establishes the
  scope of names extruded by the broadcast;
* restriction implements pi-style scope extrusion (rule 5), except that a
  bound output may export the fresh name to arbitrarily many receivers at
  once.

The rules are written once, in :class:`Table3`.  The module-level functions
are the paper's instance of it; the broadcast extensions in
:mod:`repro.calculi` (lossy and wireless delivery) are instances that
override one of three hooks: who hears a broadcast (:meth:`Table3.hears`),
how a parallel composition takes one (:meth:`Table3._par_inputs`, with the
top-level :meth:`Table3.input_continuations`), and which names fresh binders
must avoid (:attr:`Table3.avoid`).  The point-to-point pi-calculus of
:mod:`repro.calculi.pi` is one more instance: it overrides the parallel
rules (:meth:`Table3._par_steps`, :meth:`Table3._par_inputs`) and rule (6)
(:meth:`Table3._hide_output`).
"""

from __future__ import annotations

from .actions import TAU, Action, InputAction, OutputAction, TauAction
from .binders import close_extrusion, freshen_action_binders
from .discard import listening_channels
from .freenames import free_names
from .names import Name, fresh_name
from .substitution import apply_subst, unfold_rec
from .syntax import (
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

#: A transition: (action, target process).
Transition = tuple[Action, Process]

__all__ = [
    "Table3",
    "Transition",
    "check_sorts",
    "freshen_action_binders",
    "input_capabilities",
    "input_continuations",
    "step_transitions",
    "transitions",
]


def input_capabilities(p: Process) -> frozenset[tuple[Name, int]]:
    """The (channel, arity) pairs at which *p* can currently receive.

    The channels here are exactly ``In(p)`` (when *p* is well-sorted); the
    arity accompanies them so exploration knows which vectors to offer.
    """
    try:
        return p._caps
    except AttributeError:
        pass
    result = _input_capabilities(p)
    p._caps = result
    return result


def _input_capabilities(p: Process) -> frozenset[tuple[Name, int]]:
    if isinstance(p, (Nil, Tau, Output)):
        return frozenset()
    if isinstance(p, Input):
        return frozenset(((p.chan, len(p.params)),))
    if isinstance(p, (Sum, Par)):
        return input_capabilities(p.left) | input_capabilities(p.right)
    if isinstance(p, Match):
        branch = p.then if p.left == p.right else p.orelse
        return input_capabilities(branch)
    if isinstance(p, Rec):
        return input_capabilities(unfold_rec(p))
    if isinstance(p, Restrict):
        return frozenset((c, k) for (c, k) in input_capabilities(p.body)
                         if c != p.name)
    if isinstance(p, Ident):
        raise ValueError(
            f"cannot inspect open process (free identifier {p.ident!r})")
    raise TypeError(f"unknown process node {type(p).__name__}")


class Table3:
    """The transition rules (1)-(14) over the Table 2 discard relation.

    Two recursions: :meth:`_compute_steps` for the autonomous moves (rules
    2, 4-11, 13, 14) and :meth:`_compute_inputs` for the delivery of one
    broadcast (rules 3, 8-12).  As written, this is the paper's reliable
    broadcast, memoized on the interned nodes (``_steps``, ``_inputs``, and
    the ``_caps``/``_listen`` slots of the Table 2 judgements) — slots
    shared by every instance.  A subclass that changes a hook therefore
    brings its own memo tables
    (:class:`repro.calculi.backend.StructuralBackend`).
    """

    #: Names that freshly generated binders must avoid, besides the names
    #: local to the rule (wireless: the topology cells).
    avoid: frozenset[Name] = frozenset()

    def hears(self, chan: Name, listener: Name) -> bool:
        """Does an input on *listener* hear a broadcast on *chan*?"""
        return chan == listener

    # ------------------------------------------------------------ Table 2
    # In(p) and the capabilities are syntactic, so every instance shares
    # the node-slot memos of the module-level functions.
    listening_channels = staticmethod(listening_channels)
    input_capabilities = staticmethod(input_capabilities)

    def discards(self, p: Process, a: Name) -> bool:
        """``p -a/->``: *p* ignores every broadcast made on *a*."""
        return a not in self.listening_channels(p)

    # -------------------------------------------------------------- steps
    def step_transitions(self, p: Process) -> tuple[Transition, ...]:
        """All ``p -phi-> p'`` with ``phi`` an output or ``tau``.

        These are the "steps" of Section 3.2 — the real reduction relation
        of a broadcast calculus, since a sender never waits for receivers.
        Memoized on the interned node: parallel compositions share
        subterms heavily, so the recursion bottoms out in slot reads.
        """
        result = getattr(p, "_steps", None)
        if result is None:
            result = p._steps = self._compute_steps(p)
        return result

    def _compute_steps(self, p: Process) -> tuple[Transition, ...]:
        if isinstance(p, Par):
            return tuple(self._par_steps(p))
        if isinstance(p, (Nil, Input)):
            return ()
        if isinstance(p, Tau):
            return ((TAU, p.cont),)  # rule (2)
        if isinstance(p, Output):
            return ((OutputAction(p.chan, p.args, ()), p.cont),)  # rule (4)
        if isinstance(p, Sum):  # rule (8)
            return self.step_transitions(p.left) + self.step_transitions(p.right)
        if isinstance(p, Match):  # rules (9), (10)
            branch = p.then if p.left == p.right else p.orelse
            return self.step_transitions(branch)
        if isinstance(p, Rec):  # rule (11)
            return self.step_transitions(unfold_rec(p))
        if isinstance(p, Restrict):
            return tuple(self._restrict_steps(p))
        if isinstance(p, Ident):
            raise ValueError(
                f"cannot take transitions of open process (free identifier {p.ident!r})")
        raise TypeError(f"unknown process node {type(p).__name__}")

    def _restrict_steps(self, p: Restrict) -> list[Transition]:
        x, body = p.name, p.body
        out: list[Transition] = []
        for action, target in self.step_transitions(body):
            if isinstance(action, TauAction):  # rule (7)
                out.append((TAU, Restrict(x, target)))
                continue
            assert isinstance(action, OutputAction)
            if action.chan == x:
                out.extend(self._hide_output(x, action, target))
                continue
            if x in action.binders:
                # Shadowing: an inner restriction happened to extrude a name
                # spelled like x; rename that binder so rules (5)/(7) apply.
                action, target = freshen_action_binders(
                    action, target, frozenset((x,)) | self.avoid)
            if x in action.objects:
                # Rule (5): scope extrusion — x joins the binders and the
                # restriction disappears (its scope now spans all receivers).
                out.append((OutputAction(action.chan, action.objects,
                                         action.binders + (x,)), target))
            else:
                # Rule (7): x not involved, keep the restriction.
                out.append((action, Restrict(x, target)))
        return out

    def _hide_output(self, x: Name, action: OutputAction,
                     target: Process) -> tuple[Transition, ...]:
        """Rule (6): a broadcast on the restricted channel *x* is internal;
        the scope of any names it extruded is re-established."""
        return ((TAU, Restrict(x, close_extrusion(action, target))),)

    def _par_steps(self, p: Par) -> list[Transition]:
        out: list[Transition] = []
        for on_left, active, passive in ((True, p.left, p.right),
                                         (False, p.right, p.left)):
            for action, target in self.step_transitions(active):
                if isinstance(action, TauAction):
                    # Rule (14) with alpha = tau (every process "discards" tau).
                    residuals: tuple[Process, ...] = (passive,)
                else:
                    assert isinstance(action, OutputAction)
                    if action.binders:
                        # Side condition of rules (13)/(14): extruded names
                        # fresh for the passive side.
                        action, target = freshen_action_binders(
                            action, target, free_names(passive) | self.avoid)
                    if self.discards(passive, action.chan):
                        # Rule (14): the passive side is not listening.
                        residuals = (passive,)
                    else:
                        # Rule (13): the passive side *must* take the
                        # broadcast, in every way the delivery judgement
                        # admits.
                        residuals = self.input_continuations(
                            passive, action.chan, action.objects)
                for received in residuals:
                    out.append((action, Par(target, received) if on_left
                                else Par(received, target)))
        return out

    # ----------------------------------------------------------- delivery
    def input_continuations(self, p: Process, chan: Name,
                            values: tuple[Name, ...]) -> tuple[Process, ...]:
        """All ``p'`` with ``p -chan(values)-> p'`` (early input, rule (3)).

        Empty when *p* discards *chan* (or listens at a different arity —
        the calculus is implicitly well-sorted; see :func:`check_sorts`).
        """
        return self._deliver(p, chan, values)

    def _deliver(self, p: Process, chan: Name,
                 values: tuple[Name, ...]) -> tuple[Process, ...]:
        """Memoized :meth:`_compute_inputs`, on the interned node: one
        ``(chan, values)`` -> residuals table per node."""
        memo = getattr(p, "_inputs", None)
        if memo is None:
            memo = p._inputs = {}
        key = (chan, values)
        result = memo.get(key)
        if result is None:
            result = memo[key] = self._compute_inputs(p, chan, values)
        return result

    def _compute_inputs(self, p: Process, chan: Name,
                        values: tuple[Name, ...]) -> tuple[Process, ...]:
        if isinstance(p, (Nil, Tau, Output)):
            return ()
        if isinstance(p, Input):
            # (`p.chan == chan` spares the default semantics the hook call)
            if not (p.chan == chan or self.hears(chan, p.chan)) \
                    or len(p.params) != len(values):
                return ()
            return (apply_subst(p.cont, dict(zip(p.params, values))),)
        if isinstance(p, Sum):  # rule (8)
            return (self._deliver(p.left, chan, values)
                    + self._deliver(p.right, chan, values))
        if isinstance(p, Match):  # rules (9), (10)
            branch = p.then if p.left == p.right else p.orelse
            return self._deliver(branch, chan, values)
        if isinstance(p, Rec):  # rule (11)
            return self._deliver(unfold_rec(p), chan, values)
        if isinstance(p, Restrict):
            return self._restrict_inputs(p, chan, values)
        if isinstance(p, Par):
            return self._par_inputs(p, chan, values)
        if isinstance(p, Ident):
            raise ValueError(
                f"cannot take transitions of open process (free identifier {p.ident!r})")
        raise TypeError(f"unknown process node {type(p).__name__}")

    def _restrict_inputs(self, p: Restrict, chan: Name,
                         values: tuple[Name, ...]) -> tuple[Process, ...]:
        x, body = p.name, p.body
        x_hears = self.hears(chan, x)
        if x_hears and self.discards(p, chan):
            # Only the private channel would hear, and the environment
            # cannot address it.
            return ()
        if x_hears or x in values:
            # Alpha-rename the restriction first (rule (1) + (7)) so the
            # bound name neither hears the broadcast nor captures a value.
            nx = fresh_name(free_names(body) | set(values) | self.avoid
                            | {chan, x}, hint=x)
            body = apply_subst(body, {x: nx})
            x = nx
        return tuple(Restrict(x, q)
                     for q in self._deliver(body, chan, values))

    def _par_inputs(self, p: Par, chan: Name,
                    values: tuple[Name, ...]) -> tuple[Process, ...]:
        # Rules (12) and (14): every component listening on `chan` receives,
        # every component not listening stays put.  If either side listens
        # only at a different arity, the broadcast cannot be assembled.
        left_discards = self.discards(p.left, chan)
        right_discards = self.discards(p.right, chan)
        if left_discards and right_discards:
            return ()
        lefts = ((p.left,) if left_discards
                 else self._deliver(p.left, chan, values))
        rights = ((p.right,) if right_discards
                  else self._deliver(p.right, chan, values))
        return tuple(Par(l, r) for l in lefts for r in rights)

    # ---------------------------------------------------------------- LTS
    def transitions(self, p: Process, universe) -> list[Transition]:
        """The full (finitized) transition set of *p*.

        Outputs and tau come from :meth:`step_transitions`; inputs are
        instantiated over all vectors of the given
        :class:`~repro.core.names.NameUniverse`.
        """
        result: list[Transition] = list(self.step_transitions(p))
        for chan, arity in sorted(self.input_capabilities(p)):
            for values in universe.vectors(arity):
                for target in self.input_continuations(p, chan, values):
                    result.append((InputAction(chan, values), target))
        return result


#: The paper's semantics, behind the module-level functions.
_BPI = Table3()


def step_transitions(p: Process) -> tuple[Transition, ...]:
    """All ``p -phi-> p'`` with ``phi`` an output or ``tau``."""
    return _BPI.step_transitions(p)


def input_continuations(p: Process, chan: Name,
                        values: tuple[Name, ...]) -> tuple[Process, ...]:
    """All ``p'`` with ``p -chan(values)-> p'`` (early input, rule (3)).

    Returns the empty tuple when *p* discards *chan* (or listens at a
    different arity — the calculus is implicitly well-sorted; see
    :func:`check_sorts`).
    """
    return _BPI._deliver(p, chan, values)


def transitions(p: Process, universe) -> list[Transition]:
    """The full (finitized) transition set of *p* (:meth:`Table3.transitions`)."""
    return _BPI.transitions(p, universe)


def check_sorts(p: Process) -> dict[Name, int]:
    """Verify that every channel is used at one arity only.

    The paper works with an implicitly well-sorted polyadic calculus; mixing
    arities on one channel would break the input/discard dichotomy.  Returns
    the inferred sort (arity per free channel).  Raises ``ValueError`` on an
    inconsistency.
    """
    sorts: dict[Name, int] = {}

    def note(chan: Name, arity: int, where: str) -> None:
        old = sorts.setdefault(chan, arity)
        if old != arity:
            raise ValueError(
                f"channel {chan!r} used at arities {old} and {arity} ({where})")

    def walk(q: Process) -> None:
        if isinstance(q, Input):
            note(q.chan, len(q.params), "input")
        elif isinstance(q, Output):
            note(q.chan, len(q.args), "output")
        for c in q.children():
            walk(c)

    walk(p)
    return sorts
