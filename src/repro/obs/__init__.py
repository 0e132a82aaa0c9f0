"""``repro.obs`` — zero-dependency observability for the bpi-calculus engine.

Three instruments, one switch:

* **spans** (:mod:`.tracing`) — nestable timed regions with attributes,
  exportable as ``chrome://tracing`` / Perfetto JSON or a text tree;
* **metrics** (:mod:`.metrics`) — named counters / gauges / histograms
  (states expanded, partition splits, game pairs, substitutions, ...);
* **progress** (:mod:`.progress`) — pluggable callbacks fed by the
  exploration loops, with a rate-limited stderr reporter by default.

Everything is off until :func:`enable` flips ``obs.enabled``; the
instrumented hot paths guard each update with one attribute check on a
slotted singleton (:data:`repro.obs.state.STATE`), so the disabled
overhead is noise-level.  Typical use::

    from repro import obs
    obs.enable(progress=True)          # heartbeats on stderr
    lts, root = build_step_lts(big_system)
    print(obs.summary_tree())          # where the time went
    obs.export_chrome("trace.json")    # open in chrome://tracing
    obs.metrics_snapshot()["counters"] # what the engine actually did

See ``docs/observability.md`` for the span-name catalogue and the CLI
flags (``python -m repro --trace out.json --metrics ...``).
"""

from __future__ import annotations

from typing import Any, Callable

from .metrics import (
    clear_metrics,
    counter_value,
    format_metrics,
    gauge,
    inc,
    kernel_cache_metrics,
    metrics_snapshot,
    observe,
)
from .progress import (
    ProgressCallback,
    RateLimited,
    add_callback,
    clear_callbacks,
    remove_callback,
    report,
    stderr_reporter,
)
from .state import STATE
from .tracing import (
    NULL_SPAN,
    SpanRecord,
    chrome_events,
    clear_trace,
    export_chrome,
    span,
    span_summary,
    summary_tree,
    trace_spans,
)

__all__ = [
    "enable", "disable", "is_enabled", "reset", "snapshot", "STATE",
    # tracing
    "span", "SpanRecord", "NULL_SPAN", "trace_spans", "clear_trace",
    "chrome_events", "export_chrome", "summary_tree", "span_summary",
    # metrics
    "inc", "gauge", "observe", "counter_value", "metrics_snapshot",
    "kernel_cache_metrics", "format_metrics", "clear_metrics",
    # progress
    "report", "add_callback", "remove_callback",
    "stderr_reporter", "RateLimited", "ProgressCallback",
]


def enable(*, progress: bool | ProgressCallback | None = None,
           progress_interval: float = 0.5) -> None:
    """Turn spans, metrics and progress dispatch on.

    ``progress=True`` installs the default rate-limited stderr reporter;
    a callable installs that callback instead (un-rate-limited — wrap it
    in :class:`RateLimited` yourself if needed).  Collected data survives
    :func:`disable`/:func:`enable` cycles; use :func:`reset` to drop it.
    """
    if progress is not None and progress is not False:
        if callable(progress):
            add_callback(progress)
        else:
            add_callback(stderr_reporter(progress_interval))
    STATE.enabled = True


def disable() -> None:
    """Turn instrumentation off (recorded data is kept)."""
    STATE.enabled = False


def is_enabled() -> bool:
    """Is instrumentation currently on?  (Also readable as ``obs.enabled``.)"""
    return STATE.enabled


def reset() -> None:
    """Disable and drop all spans, metrics and progress callbacks."""
    STATE.enabled = False
    clear_trace()
    clear_metrics()
    clear_callbacks()


def snapshot() -> dict[str, Any]:
    """One dict with everything: span aggregates + the metrics registry.

    This is the block :mod:`benchmarks.report` embeds under the ``"obs"``
    key of ``BENCH_report.json``.
    """
    snap = metrics_snapshot()
    snap["spans"] = span_summary()
    return snap


def __getattr__(name: str) -> Any:
    if name == "enabled":
        return STATE.enabled
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
