"""Alpha-renaming and re-restriction of bound-output binders, shared
across semantics.

The binders of a bound output ``nu y~ a<z~>`` are free in the residual, so
renaming a binder renames it in the residual too.  Rule (13)'s side
condition ``y~ /\\ fn(p2) = {}`` and the restriction rules (5)/(7) both
need this; so does every alternative calculus backend that re-implements
the parallel rules.  Closing the scope again (:func:`close_extrusion`)
serves rule (6), the pi handshake and closed-system exploration.  Both
live in their own module so layers outside ``core/`` can import them
without reaching into ``core.semantics`` (see contract Rule E in
``tools/check_contracts.py``).
"""

from __future__ import annotations

from .actions import Action, OutputAction
from .freenames import free_names
from .names import Name, fresh_name
from .substitution import apply_subst
from .syntax import Process, Restrict


def freshen_action_binders(action: OutputAction, residual: Process,
                           avoid: frozenset[Name]) -> tuple[OutputAction, Process]:
    """Alpha-rename the binders of a bound output away from *avoid*.

    The binders of ``nu y~ a<z~>`` are free in the residual, so renaming a
    binder renames it in the residual too.  Needed by rule (13)'s side
    condition ``y~ /\\ fn(p2) = {}`` and by rule (5)/(7) clashes at
    restrictions.
    """
    clashing = [b for b in action.binders if b in avoid]
    if not clashing:
        return action, residual
    taken = (set(avoid) | set(action.objects) | {action.chan}
             | set(free_names(residual)))
    mapping: dict[Name, Name] = {}
    for b in clashing:
        nb = fresh_name(taken, hint=b)
        taken.add(nb)
        mapping[b] = nb
    new_action = OutputAction(
        action.chan,
        tuple(mapping.get(o, o) for o in action.objects),
        tuple(mapping.get(b, b) for b in action.binders),
    )
    return new_action, apply_subst(residual, mapping)


def close_extrusion(action: Action, target: Process) -> Process:
    """Re-restrict the names a bound output extrudes around its residual.

    Rule (6) and the pi handshake do this once the communication that
    received the names is internal.  For a *closed* system under
    reachability analysis there is no environment to remember an
    extruded name, so re-binding it around the residual preserves all
    reachable barbs on the original free channels while keeping the state
    space canonical (fresh names do not accumulate path-dependent
    identities).  Any other action's target is returned unchanged.
    """
    if isinstance(action, OutputAction) and action.binders:
        for b in reversed(action.binders):
            target = Restrict(b, target)
    return target
