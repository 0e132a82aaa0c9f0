"""Central control over the term kernel's caches.

The hash-consing kernel (:mod:`repro.core.syntax`) interns every process
term and memoizes semantic results (free names, canonical forms, step
transitions, deliveries, barbs, ``In(p)`` ...) directly on the interned
nodes.  This module gives tests and benchmarks one switch for all of it:

* :func:`clear_caches` — forget every memoized result and empty the intern
  table, returning the kernel to a cold state (live terms held by callers
  stay usable; they simply re-intern/recompute on next use).
* :func:`cache_stats` — intern-table hit/miss counters, for benchmark
  reporting.

Clearing is also the memory-reclamation hook: the intern table holds strong
references, so a long-running service embedding the library should call
:func:`clear_caches` between unrelated workloads.
"""

from __future__ import annotations

import sys
from typing import Any

from . import syntax


#: Layers above the kernel that memoize on interned nodes: backend memo
#: tables and flow summaries must not outlive the intern table they were
#: built against.  A layer not yet imported holds nothing to clear.
_NODE_KEYED_LAYERS = ("repro.calculi.registry", "repro.flow.analysis")


def clear_caches() -> None:
    """Reset the term kernel to a cold state.

    Purges all node-level memoized results, empties the intern table (and
    its hit/miss counters) and clears the node-keyed memo tables of the
    loaded upper layers (backends, flow summaries); it imports no layer to
    do so.
    """
    syntax.clear_intern_table()
    for name in _NODE_KEYED_LAYERS:
        layer = sys.modules.get(name)
        if layer is not None:
            layer.clear_caches()


def cache_stats() -> dict[str, Any]:
    """A snapshot of the kernel's cache state: the intern-table counters
    of :func:`repro.core.syntax.intern_stats`."""
    return dict(syntax.intern_stats())
