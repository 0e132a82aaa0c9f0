"""Explicit finite LTS graphs built from process terms.

States are processes quotiented by :func:`repro.core.canonical.canonical_state`
(a sound approximation of structural congruence — imperfect identification
costs duplicate states, never wrong answers).  Exploration is bounded; the
paper's recursive examples are semantically finite-state only up to such
quotienting.

Two graph flavours are built on one core:

* :func:`build_step_lts` — the autonomous ``-phi->`` graph (outputs + tau,
  labels kept), enough for barbed and step bisimilarity and for
  reachability analyses of closed systems.
* :func:`build_full_lts` — adds early-input transitions instantiated over a
  :class:`~repro.core.names.NameUniverse`; used by benchmarks and the
  simulator when the environment can inject messages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..calculi import registry as _registry
from ..calculi.backend import CalculusBackend
from ..core.actions import Action, InputAction, OutputAction, TauAction
from ..core.canonical import canonical_state
from ..core.freenames import free_names
from ..core.names import NameUniverse
from ..core.reduction import barbs
from ..core.syntax import Process, Restrict
from ..engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)
from ..obs import metrics as _metrics, progress as _progress, tracing as _tracing
from ..obs.state import STATE as _OBS

DEFAULT_MAX_STATES = 20_000

#: Default budget for LTS exploration (raw-explorer layer: a trip raises
#: :class:`BudgetExceeded` with the partial ``(lts, root)`` attached).
DEFAULT_BUDGET = Budget(max_states=DEFAULT_MAX_STATES)


@dataclass
class LTS:
    """An explicit labelled transition system over canonical process states.

    ``index`` is keyed by the hash-consed canonical state: interned terms
    carry a cached hash and compare by identity, so state lookup never
    walks a term tree.
    """

    states: list[Process] = field(default_factory=list)
    index: dict[Process, int] = field(default_factory=dict)
    edges: list[list[tuple[Action, int]]] = field(default_factory=list)
    _edge_count: int = field(default=0, repr=False)

    def add_state(self, p: Process) -> int:
        """Intern canonical state *p*, returning its id."""
        sid = self.index.get(p)
        if sid is None:
            sid = len(self.states)
            self.index[p] = sid
            self.states.append(p)
            self.edges.append([])
        return sid

    def add_edge(self, src: int, action: Action, dst: int) -> None:
        self.edges[src].append((action, dst))
        self._edge_count += 1

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_edges(self) -> int:
        return self._edge_count

    def successors(self, sid: int, *, tau_only: bool = False) -> list[int]:
        """Target ids of outgoing edges (optionally tau edges only)."""
        return [dst for act, dst in self.edges[sid]
                if not tau_only or isinstance(act, TauAction)]

    def barbs_of(self, sid: int) -> frozenset[str]:
        """Strong barbs of a state (outputs available right now)."""
        return barbs(self.states[sid])

    def __repr__(self) -> str:
        return f"LTS(states={self.n_states}, edges={self.n_edges})"


def _close_binders(action: Action, target: Process) -> Process:
    """Re-bind extruded names around a bound-output target.

    For *state identity* in reachability-style analyses, the residual of a
    bound output is considered together with its extruded names still
    restricted: the environment of a closed system under analysis will have
    learnt them, but their future behaviour is fully represented by the
    re-bound form when we only track barbs and steps.
    """
    if isinstance(action, OutputAction) and action.binders:
        q = target
        for b in reversed(action.binders):
            q = Restrict(b, q)
        return q
    return target


def build_step_lts(p: Process, *,
                   budget: Budget | Meter | None = None,
                   close_binders: bool = True,
                   calculus: str | CalculusBackend | None = None
                   ) -> tuple[LTS, int]:
    """Explore the ``-phi->`` graph from *p*; returns (lts, initial id).

    Raw-explorer contract: when the budget trips this raises
    :class:`BudgetExceeded` with the partially built ``(lts, root)`` on
    ``exc.partial`` — the verdict layer (:func:`repro.api.explore`)
    degrades that into a truncated-but-usable result.

    ``calculus`` selects the broadcast semantics via
    :mod:`repro.calculi.registry` (default: the paper's ``"bpi"``).
    """
    backend = _registry.resolve(calculus)
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    with _tracing.span("lts.build_step") as sp:
        lts = LTS()
        root = lts.add_state(canonical_state(p))
        meter.charge()
        queue = deque([root])
        expanded: set[int] = set()
        try:
            while queue:
                sid = queue.popleft()
                if sid in expanded:
                    continue
                expanded.add(sid)
                if _OBS.enabled:
                    _metrics.inc("lts.states_expanded")
                    _progress.report("lts.build_step", states=lts.n_states,
                                     edges=lts.n_edges, frontier=len(queue))
                state = lts.states[sid]
                for action, target in backend.step_transitions(state):
                    if close_binders:
                        target = _close_binders(action, target)
                    tgt = canonical_state(target)
                    known = tgt in lts.index
                    if not known:
                        meter.charge()
                    tid = lts.add_state(tgt)
                    lts.add_edge(sid, action, tid)
                    if not known:
                        queue.append(tid)
        except BudgetExceeded as exc:
            if exc.partial is None:
                exc.partial = (lts, root)
            sp.set(budget_tripped=exc.reason)
            raise
        if _OBS.enabled:
            _metrics.inc("lts.edges_added", lts.n_edges)
        sp.set(n_states=lts.n_states, n_edges=lts.n_edges)
    return lts, root


def canonical_output_label(action: OutputAction) -> OutputAction:
    """Abstract the binder *names* of a bound output out of the label.

    Extruded names are arbitrary; labels become comparable across states by
    replacing each binder with an indexed placeholder (by first occurrence
    among the objects).
    """
    if not action.binders:
        return action
    order = {b: i for i, b in enumerate(action.binders)}
    placeholders = {b: f"_e{order[b]}" for b in action.binders}
    return OutputAction(action.chan,
                        tuple(placeholders.get(o, o) for o in action.objects),
                        tuple(placeholders[b] for b in action.binders))


def build_full_lts(p: Process, universe: NameUniverse | None = None, *,
                   budget: Budget | Meter | None = None,
                   n_fresh: int = 1,
                   calculus: str | CalculusBackend | None = None
                   ) -> tuple[LTS, int]:
    """Explore outputs, taus *and* universe-instantiated inputs from *p*.

    Bound-output labels are canonicalized via
    :func:`canonical_output_label` and their targets re-bound, keeping the
    graph finite and labels comparable.  Raw-explorer contract: a budget
    trip raises :class:`BudgetExceeded` with the partial ``(lts, root)``
    attached to ``exc.partial``.
    """
    backend = _registry.resolve(calculus)
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    if universe is None:
        universe = NameUniverse(free_names(p), n_fresh)
    with _tracing.span("lts.build_full") as sp:
        lts = LTS()
        root = lts.add_state(canonical_state(p))
        meter.charge()
        queue = deque([root])
        expanded: set[int] = set()

        def intern(target: Process, sid_from: int, action: Action) -> None:
            tgt = canonical_state(target)
            known = tgt in lts.index
            if not known:
                meter.charge()
            tid = lts.add_state(tgt)
            lts.add_edge(sid_from, action, tid)
            if not known:
                queue.append(tid)

        try:
            while queue:
                sid = queue.popleft()
                if sid in expanded:
                    continue
                expanded.add(sid)
                if _OBS.enabled:
                    _metrics.inc("lts.states_expanded")
                    _progress.report("lts.build_full", states=lts.n_states,
                                     edges=lts.n_edges, frontier=len(queue))
                state = lts.states[sid]
                for action, target in backend.step_transitions(state):
                    if isinstance(action, OutputAction) and action.binders:
                        intern(_close_binders(action, target), sid,
                               canonical_output_label(action))
                    else:
                        intern(target, sid, action)
                for chan, arity in sorted(backend.input_capabilities(state)):
                    for values in universe.vectors(arity):
                        for target in backend.input_continuations(
                                state, chan, values):
                            intern(target, sid, InputAction(chan, values))
        except BudgetExceeded as exc:
            if exc.partial is None:
                exc.partial = (lts, root)
            sp.set(budget_tripped=exc.reason)
            raise
        if _OBS.enabled:
            _metrics.inc("lts.edges_added", lts.n_edges)
        sp.set(n_states=lts.n_states, n_edges=lts.n_edges)
    return lts, root
