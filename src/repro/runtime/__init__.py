"""Seeded execution and reachability analyses of closed broadcast systems."""

from .analysis import (
    can_diverge,
    can_reach_barb,
    eventually_always,
    find_quiescent,
    invariant_holds,
    reachable_states,
)
from .simulator import (
    Policy,
    run,
    run_until_quiescent,
    sample_runs,
)
from .trace import Trace, TraceEvent

__all__ = [
    "can_diverge", "can_reach_barb", "eventually_always", "find_quiescent",
    "invariant_holds", "reachable_states",
    "Policy", "run", "run_until_quiescent", "sample_runs", "Trace",
    "TraceEvent",
]
