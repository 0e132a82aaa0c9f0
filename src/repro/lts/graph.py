"""Explicit finite LTS graphs built from process terms.

States are processes quotiented by :func:`repro.core.canonical.canonical_state`
(a sound approximation of structural congruence — imperfect identification
costs duplicate states, never wrong answers).  Exploration is bounded; the
paper's recursive examples are semantically finite-state only up to such
quotienting.

Every closed-system search above the kernel walks one bounded
breadth-first explorer, :func:`grow`; the two graph flavours here are
thin drivers of it:

* :func:`build_step_lts` — the autonomous ``-phi->`` graph (outputs + tau,
  labels kept), enough for barbed and step bisimilarity and for
  reachability analyses of closed systems.
* :func:`build_full_lts` — adds early-input transitions instantiated over a
  :class:`~repro.core.names.NameUniverse`; used by benchmarks and the
  simulator when the environment can inject messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from ..calculi import registry as _registry
from ..calculi.backend import CalculusBackend
from ..core.actions import Action, InputAction, OutputAction, TauAction
from ..core.canonical import canonical_state
from ..core.freenames import free_names
from ..core.names import NameUniverse
from ..core.reduction import barbs, close_extrusion
from ..core.syntax import Process
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


#: What :func:`grow` expands a state with: its ``(label, target)`` pairs.
Expand = Callable[[Process], Iterable[tuple[Any, Process]]]


def grow(lts: LTS, roots: Iterable[Process], expand: Expand, meter: Meter, *,
         canonical: Callable[[Process], Process]) -> Iterator[int]:
    """Breadth-first exploration into *lts* — the one bounded explorer.

    Interns each distinct root, charging *meter* one unit per root, then
    yields every state id in discovery order *before* expanding it, so a
    consumer may stop early.  Expanding a state records one edge per
    ``(label, target)`` pair of ``expand(state)``; targets are interned
    under *canonical* (:func:`~repro.core.canonical.canonical_state`, or
    a coarser quotient), charging one unit per new state.  Raw-explorer
    contract: a trip raises :class:`BudgetExceeded` out of the generator,
    and *lts* then holds every state charged so far — each caller
    attaches the partial result of its own shape.
    """
    states, index, add_edge = lts.states, lts.index, lts.add_edge
    sid = len(states)
    for root in roots:
        state = canonical(root)
        if state not in index:
            meter.charge()
            lts.add_state(state)
    # ids are handed out in discovery order, so the BFS queue is the id range
    while sid < len(states):
        yield sid
        for label, target in expand(states[sid]):
            state = canonical(target)
            tid = index.get(state)
            if tid is None:
                meter.charge()
                tid = lts.add_state(state)
            add_edge(sid, label, tid)
        sid += 1


def closed_steps(calculus: str | CalculusBackend | None = None) -> Expand:
    """The ``-phi->`` steps of *calculus* as seen by a closed system: each
    target keeps the names its bound output extrudes restricted
    (:func:`~repro.core.reduction.close_extrusion`)."""
    steps = _registry.resolve(calculus).step_transitions

    def expand(state: Process) -> list[tuple[Action, Process]]:
        return [(a, close_extrusion(a, t)) for a, t in steps(state)]

    return expand


def _build(span: str, p: Process, expand: Expand,
           meter: Meter) -> tuple[LTS, int]:
    """Drive :func:`grow` from *p* under a tracing span; root id is 0."""
    with _tracing.span(span) as sp:
        lts = LTS()
        try:
            for sid in grow(lts, (p,), expand, meter,
                            canonical=canonical_state):
                if _OBS.enabled:
                    _metrics.inc("lts.states_expanded")
                    _progress.report(span, states=lts.n_states,
                                     edges=lts.n_edges,
                                     frontier=lts.n_states - sid - 1)
        except BudgetExceeded as exc:
            # a trip charging the root leaves an empty graph with no root
            exc.partial = (lts, 0 if lts.states else None)
            sp.set(budget_tripped=exc.reason)
            raise
        if _OBS.enabled:
            _metrics.inc("lts.edges_added", lts.n_edges)
        sp.set(n_states=lts.n_states, n_edges=lts.n_edges)
    return lts, 0


def build_step_lts(p: Process, *,
                   budget: Budget | Meter | None = None,
                   close_binders: bool = True,
                   calculus: str | CalculusBackend | None = None
                   ) -> tuple[LTS, int]:
    """Explore the ``-phi->`` graph from *p*; returns (lts, initial id).

    Raw-explorer contract: when the budget trips this raises
    :class:`BudgetExceeded` with the partially built ``(lts, root)`` on
    ``exc.partial`` — ``(LTS(), None)`` when the root's own charge trips;
    the verdict layer (:func:`repro.api.explore`) degrades that into a
    truncated-but-usable result.

    ``calculus`` selects the broadcast semantics via
    :mod:`repro.calculi.registry` (default: the paper's ``"bpi"``).
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    expand = (closed_steps(calculus) if close_binders
              else _registry.resolve(calculus).step_transitions)
    return _build("lts.build_step", p, expand, meter)


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

    def expand(state: Process) -> Iterator[tuple[Action, Process]]:
        for action, target in backend.step_transitions(state):
            if isinstance(action, OutputAction):
                yield (canonical_output_label(action),
                       close_extrusion(action, target))
            else:
                yield action, target
        for chan, arity in sorted(backend.input_capabilities(state)):
            for values in universe.vectors(arity):
                for target in backend.input_continuations(
                        state, chan, values):
                    yield InputAction(chan, values), target

    return _build("lts.build_full", p, expand, meter)
