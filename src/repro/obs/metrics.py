"""Named counters, gauges and histograms for the engine's hot paths.

All metrics live in one process-wide registry keyed by dotted names
(``lts.states_expanded``, ``partition.splits``, ...).  The write paths are
lock-protected — instrumented code only calls them behind the
``STATE.enabled`` guard, so the disabled fast path never takes the lock.

Three instrument kinds:

* **counters** (:func:`inc`) — monotone totals: states expanded, partition
  splits, game pairs, substitutions applied, simulator steps;
* **gauges** (:func:`gauge`) — last-written values: sizes of the most
  recent structures;
* **histograms** (:func:`observe`) — streaming ``count/total/min/max`` of
  a measured quantity.

:func:`metrics_snapshot` returns the whole registry as plain dicts (the
form embedded in ``BENCH_report.json``); :func:`kernel_cache_metrics`
folds in the hash-consing kernel's intern/memo statistics from
:func:`repro.core.cache.cache_stats` (imported lazily to keep this package
dependency-free at import time).
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = [
    "inc", "gauge", "observe", "counter_value", "metrics_snapshot",
    "kernel_cache_metrics", "format_metrics", "clear_metrics",
]

_lock = threading.Lock()
_counters: dict[str, float] = {}
_gauges: dict[str, float] = {}
_hists: dict[str, dict[str, float]] = {}


def inc(name: str, delta: float = 1) -> None:
    """Add *delta* (default 1) to counter *name*."""
    with _lock:
        _counters[name] = _counters.get(name, 0) + delta


def gauge(name: str, value: float) -> None:
    """Set gauge *name* to *value* (last write wins)."""
    with _lock:
        _gauges[name] = value


def observe(name: str, value: float) -> None:
    """Record *value* into histogram *name* (count/total/min/max)."""
    with _lock:
        h = _hists.get(name)
        if h is None:
            _hists[name] = {"count": 1, "total": value,
                            "min": value, "max": value}
        else:
            h["count"] += 1
            h["total"] += value
            h["min"] = min(h["min"], value)
            h["max"] = max(h["max"], value)


def counter_value(name: str) -> float:
    """Current value of counter *name* (0 if never incremented)."""
    with _lock:
        return _counters.get(name, 0)


def metrics_snapshot() -> dict[str, Any]:
    """The registry as plain sorted dicts: counters, gauges, histograms."""
    with _lock:
        return {
            "counters": {k: _counters[k] for k in sorted(_counters)},
            "gauges": {k: _gauges[k] for k in sorted(_gauges)},
            "histograms": {k: dict(_hists[k]) for k in sorted(_hists)},
        }


def kernel_cache_metrics() -> dict[str, Any]:
    """The term kernel's intern-table statistics."""
    from ..core.cache import cache_stats
    return cache_stats()


def format_metrics(snapshot: dict[str, Any] | None = None) -> str:
    """Human-readable rendering of a snapshot (counters first)."""
    snap = metrics_snapshot() if snapshot is None else snapshot
    lines: list[str] = []
    for name, value in snap.get("counters", {}).items():
        lines.append(f"{name:<36s} {value:>12g}")
    for name, value in snap.get("gauges", {}).items():
        lines.append(f"{name:<36s} {value:>12g}  (gauge)")
    for name, h in snap.get("histograms", {}).items():
        lines.append(f"{name:<36s} count={h['count']:g} total={h['total']:g}"
                     f" min={h['min']:g} max={h['max']:g}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def clear_metrics() -> None:
    """Zero out every counter, gauge and histogram."""
    with _lock:
        _counters.clear()
        _gauges.clear()
        _hists.clear()
