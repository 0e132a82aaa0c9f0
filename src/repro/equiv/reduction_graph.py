"""Shared exploration for the reduction-based equivalences.

Barbed (Definition 3) and step (Definition 5) bisimilarity match
*unlabelled* reductions — ``-tau->`` and ``-phi->`` respectively — plus an
observability predicate, so both reduce to coarsest-partition refinement
over an explicit graph.  This module builds those graphs for a *pair* of
processes at once (shared canonical states are interned together).

Extruded names in ``-phi->`` residuals stay free, as rule (5) dictates —
this is essential for the paper's counterexamples (Remark 1/2) — and are
canonically renamed per source state to the first ``_e<i>`` names not free
there.  The renaming is a sound approximation: in pathological systems that
drop an extruded name and then extrude again, two bisimilar states may pick
different canonical names and be needlessly split (a false negative); no
artifact of the paper hits this.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count

from ..calculi import registry as _registry
from ..calculi.backend import CalculusBackend
from ..core.actions import OutputAction, TauAction
from ..core.binders import freshen_action_binders
from ..core.canonical import canonical_state
from ..core.freenames import free_names
from ..core.reduction import barbs
from ..core.syntax import Process
from ..engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)

DEFAULT_MAX_STATES = 20_000

#: Default budget for pairwise reduction-graph exploration.
DEFAULT_BUDGET = Budget(max_states=DEFAULT_MAX_STATES)

#: Reserved prefix for canonically renamed extruded names.
EXTRUSION_PREFIX = "_e"


def canonical_extrusion(action: OutputAction, target: Process,
                        source_free: frozenset[str]) -> Process:
    """Rename the binders of a bound output to canonical ``_e<i>`` names
    (the first ones not free in the source state) and return the residual
    with those names free."""
    if not action.binders:
        return target
    fresh_iter = (f"{EXTRUSION_PREFIX}{i}" for i in count())
    mapping: dict[str, str] = {}
    taken = set(source_free) | set(action.objects)
    for b in action.binders:
        name = next(n for n in fresh_iter if n not in taken)
        taken.add(name)
        mapping[b] = name
    # freshen_action_binders guarantees binders are safe to rename; here we
    # substitute directly since the canonical names are fresh for target.
    from ..core.substitution import apply_subst
    return apply_subst(target, mapping)


def phi_successors(state: Process, *, steps: bool,
                   backend: CalculusBackend | None = None
                   ) -> tuple[Process, ...]:
    """The canonical ``-phi->`` (or tau-only) successor states of *state*.

    Targets are canonicalized (:func:`canonical_state`) with bound
    outputs renamed by :func:`canonical_extrusion`, and deduplicated
    preserving derivation order.  Memoized on the interned node (one slot
    per ``steps`` flavour) when running under the default semantics; a
    non-default backend memoizes in its own per-instance table, so the
    slot caches never mix semantics.  The shared successor function of
    the global graph builder and the on-the-fly product core.
    """
    if backend is None:
        backend = _registry.default()
    if backend.name == "bpi":
        slot = "_phisucc" if steps else "_tausucc"
        try:
            return getattr(state, slot)
        except AttributeError:
            pass
    else:
        memo = backend.memo("phisucc" if steps else "tausucc")
        try:
            return memo[state]
        except KeyError:
            pass
    out: dict[Process, None] = {}
    fn_state: frozenset[str] | None = None
    for action, target in backend.step_transitions(state):
        if isinstance(action, TauAction):
            pass  # always followed
        elif not steps:
            continue  # tau graph: outputs are not reductions
        else:
            assert isinstance(action, OutputAction)
            if action.binders:
                if fn_state is None:
                    fn_state = free_names(state)
                action, target = freshen_action_binders(
                    action, target, fn_state)
                target = canonical_extrusion(action, target, fn_state)
        out[canonical_state(target)] = None
    result = tuple(out)
    if backend.name == "bpi":
        setattr(state, slot, result)
    else:
        memo[state] = result
    return result


@dataclass
class ReductionGraph:
    """States + unlabelled successor sets + per-state strong barbs."""

    states: list[Process] = field(default_factory=list)
    index: dict[Process, int] = field(default_factory=dict)
    successors: list[set[int]] = field(default_factory=list)
    state_barbs: list[frozenset[str]] = field(default_factory=list)

    def intern(self, p: Process) -> tuple[int, bool]:
        c = canonical_state(p)
        sid = self.index.get(c)
        if sid is not None:
            return sid, False
        sid = len(self.states)
        self.index[c] = sid
        self.states.append(c)
        self.successors.append(set())
        self.state_barbs.append(barbs(c))
        return sid, True

    def frozen_successors(self) -> list[frozenset[int]]:
        return [frozenset(s) for s in self.successors]


def build_reduction_graph(roots: tuple[Process, ...], *, steps: bool,
                          budget: Budget | Meter | None = None,
                          backend: CalculusBackend | None = None,
                          ) -> tuple[ReductionGraph, tuple[int, ...]]:
    """Explore the tau-graph (``steps=False``) or phi-graph (``steps=True``)
    from all *roots* into one shared :class:`ReductionGraph`.

    Raw-explorer contract: a budget trip raises
    :class:`~repro.engine.budget.BudgetExceeded` with the partial
    ``(graph, root_ids)`` attached to ``exc.partial``.
    """
    backend = _registry.resolve(backend)
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    graph = ReductionGraph()
    queue: deque[int] = deque()
    root_ids: list[int] = []
    try:
        for r in roots:
            sid, fresh = graph.intern(r)
            root_ids.append(sid)
            if fresh:
                meter.charge()
                queue.append(sid)
        while queue:
            sid = queue.popleft()
            state = graph.states[sid]
            for target in phi_successors(state, steps=steps,
                                         backend=backend):
                tid, fresh = graph.intern(target)
                if fresh:
                    meter.charge()
                graph.successors[sid].add(tid)
                if fresh:
                    queue.append(tid)
    except BudgetExceeded as exc:
        if exc.partial is None:
            exc.partial = (graph, tuple(root_ids))
        raise
    return graph, tuple(root_ids)
