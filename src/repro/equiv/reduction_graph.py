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

from itertools import count

from ..calculi import registry as _registry
from ..calculi.backend import CalculusBackend
from ..core.actions import OutputAction, TauAction
from ..core.binders import freshen_action_binders
from ..core.canonical import canonical_state
from ..core.freenames import free_names
from ..core.syntax import Process
from ..engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)
from ..lts.graph import LTS, grow

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


def build_reduction_graph(roots: tuple[Process, ...], *, steps: bool,
                          budget: Budget | Meter | None = None,
                          backend: CalculusBackend | None = None,
                          ) -> tuple[LTS, tuple[int, ...]]:
    """Explore the tau-graph (``steps=False``) or phi-graph (``steps=True``)
    from all *roots* into one shared :class:`~repro.lts.graph.LTS` whose
    edges carry no labels; returns it with the root ids.

    Raw-explorer contract: a budget trip raises
    :class:`~repro.engine.budget.BudgetExceeded` with the partial
    ``(lts, root_ids)`` attached to ``exc.partial``.
    """
    backend = _registry.resolve(backend)
    meter = resolve_meter(budget, DEFAULT_BUDGET)

    def expand(state: Process) -> list[tuple[None, Process]]:
        return [(None, t)
                for t in phi_successors(state, steps=steps, backend=backend)]

    lts = LTS()
    try:
        for _ in grow(lts, roots, expand, meter, canonical=canonical_state):
            pass
    except BudgetExceeded as exc:
        exc.partial = (lts, _root_ids(lts, roots))
        raise
    return lts, _root_ids(lts, roots)


def _root_ids(lts: LTS, roots: tuple[Process, ...]) -> tuple[int, ...]:
    found = (lts.index.get(canonical_state(r)) for r in roots)
    return tuple(sid for sid in found if sid is not None)

