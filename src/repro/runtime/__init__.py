"""Seeded execution and reachability analyses of closed broadcast systems."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis": ("can_diverge", "can_reach_barb", "eventually_always",
                  "find_quiescent", "invariant_holds", "reachable_states"),
    ".simulator": ("Policy", "run", "run_until_quiescent", "sample_runs"),
    ".trace": ("Trace", "TraceEvent"),
})
