"""Central control over the term kernel's caches.

The hash-consing kernel (:mod:`repro.core.syntax`) interns every process
term and memoizes semantic results (free names, canonical forms, step
transitions, barbs, ``In(p)`` ...) directly on the interned nodes.  The one
multi-argument relation of the default semantics,
``input_continuations(p, a, v~)``, lives in a ``functools.lru_cache``, as do
CBS's two judgements.  This module gives tests and benchmarks one
switch for all of it:

* :func:`clear_caches` — forget every memoized result and empty the intern
  table, returning the kernel to a cold state (live terms held by callers
  stay usable; they simply re-intern/recompute on next use).
* :func:`cache_stats` — intern-table hit/miss counters and sizes of the
  remaining ``lru_cache``s, for benchmark reporting.

Clearing is also the memory-reclamation hook: the intern table holds strong
references, so a long-running service embedding the library should call
:func:`clear_caches` between unrelated workloads.
"""

from __future__ import annotations

from typing import Any, Callable

from . import syntax


def _lru_functions() -> list[Callable[..., Any]]:
    """The surviving multi-argument ``lru_cache``s, collected lazily so the
    calculi sub-package (which imports ``repro.core``) stays import-safe."""
    from . import semantics

    fns: list[Callable[..., Any]] = [semantics.input_continuations]
    try:
        from ..calculi import cbs
        fns += [cbs.speaks, cbs.hears]
    except ImportError:  # pragma: no cover - calculi are optional extras
        pass
    return fns


def clear_caches() -> None:
    """Reset the term kernel to a cold state.

    Purges all node-level memoized results, empties the intern table (and
    its hit/miss counters) and clears the remaining ``lru_cache``s.
    """
    syntax.clear_intern_table()
    for fn in _lru_functions():
        fn.cache_clear()
    try:
        from ..calculi import registry
    except ImportError:  # pragma: no cover - calculi are optional extras
        return
    # Backend memo tables key on interned nodes, so they must not outlive
    # the intern table they were built against.
    registry.clear_caches()
    try:
        from .. import flow
    except ImportError:  # pragma: no cover - flow is an optional layer
        return
    # Flow summaries key on interned roots too.
    flow.clear_caches()


def cache_stats() -> dict[str, Any]:
    """A snapshot of the kernel's cache state.

    Returns the intern-table counters from
    :func:`repro.core.syntax.intern_stats` plus the current size of each
    surviving ``lru_cache``.
    """
    stats: dict[str, Any] = dict(syntax.intern_stats())
    for fn in _lru_functions():
        info = fn.cache_info()
        stats[f"lru.{fn.__name__}"] = {
            "hits": info.hits, "misses": info.misses, "size": info.currsize}
    return stats
