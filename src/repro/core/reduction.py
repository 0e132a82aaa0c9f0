"""Observables and reduction-style views of the LTS (Section 3).

* ``p |down a``   — *strong barb*: p can immediately broadcast on channel a.
* ``p |Down a``   — *weak barb*: p ==> p' with p' |down a   (after taus).
* ``-phi->``      — the *step* relation: outputs and tau, i.e. everything a
  closed broadcast system can do on its own (Section 3.2 argues this is the
  real reduction relation of the calculus).
* weak-phi barb ``|Down^phi a``: p (-phi->)* p' with p' |down a, used by
  step-bisimulation.

The weak predicates walk a bounded graph, so they live above ``core``,
in :mod:`repro.lts.weak`; this module keeps the one-step observables.
"""

from __future__ import annotations

from ..engine.budget import StateSpaceExceeded
from .actions import OutputAction, TauAction
from .binders import close_extrusion
from .names import Name
from .semantics import step_transitions
from .syntax import Process

__all__ = [
    "StateSpaceExceeded", "barbs", "has_barb", "tau_successors",
    "step_successors", "step_successors_closed", "close_extrusion",
]


def barbs(p: Process) -> frozenset[Name]:
    """The strong barbs of *p*: subjects of immediately available outputs.

    In a broadcast calculus only outputs are observable — sending is
    non-blocking, so an observer cannot tell reception from discarding.
    """
    try:
        return p._barbs
    except AttributeError:
        pass
    result = frozenset(a.chan for a, _ in step_transitions(p)
                       if isinstance(a, OutputAction))
    p._barbs = result
    return result


def has_barb(p: Process, chan: Name) -> bool:
    """``p |down chan``."""
    return chan in barbs(p)


def tau_successors(p: Process) -> tuple[Process, ...]:
    """All p' with ``p -tau-> p'``."""
    return tuple(t for a, t in step_transitions(p) if isinstance(a, TauAction))


def step_successors(p: Process) -> tuple[Process, ...]:
    """All p' with ``p -phi-> p'`` (phi an output or tau), labels dropped."""
    return tuple(t for _, t in step_transitions(p))


def step_successors_closed(p: Process) -> tuple[Process, ...]:
    """Step successors with extruded names re-restricted."""
    return tuple(close_extrusion(a, t) for a, t in step_transitions(p))
