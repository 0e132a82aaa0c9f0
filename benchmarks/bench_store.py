#!/usr/bin/env python
"""Warm-store A/B: the verdict cache against a cold recomputation.

The ledger pair corpus (the behavioural-equivalence pairs the
EXPERIMENTS rows are built from) is run twice through
:func:`repro.store.run_batch` against one temporary
:class:`~repro.store.VerdictStore`:

* **cold** — an empty store: every request misses, computes and records;
* **warm** — a fresh process re-opens the same file: the budget-aware
  reuse rule must answer (≥ 90% hits) and recompute no request the cold
  run answered definitely, with *byte-identical* verdicts (same truth,
  reason and rendered evidence for every request, in order).  The
  wall-clock saved is measured and reported, not gated: it measures the
  host as much as the store.

``report.py`` embeds the result in BENCH_report.json (schema 6, key
``"store"``); ``python benchmarks/bench_store.py --quick`` is the CI
gate — exit 1 when the warm run falls below the hit-rate floor,
recomputes a definite cold verdict, or disagrees with the cold run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

#: The acceptance floor for the warm run's store hit rate.
WARM_HIT_RATE_FLOOR = 0.90

#: The ledger pair corpus: the equivalence pairs behind the EXPERIMENTS
#: rows (R1-R4, TH1, S6c) as batch requests, plus weak/budgeted variants.
CORPUS: tuple[dict, ...] = (
    {"id": "r1-barbed", "p": "a<b>", "q": "a<b>.c<d>", "relation": "barbed"},
    {"id": "r1-nu", "p": "nu a a<b>", "q": "nu a a<b>.c<d>",
     "relation": "barbed"},
    {"id": "r2-step", "p": "b! + tau.c!", "q": "b! + b!.c!",
     "relation": "step"},
    {"id": "r2-ctx", "p": "(b! + tau.c!) | b?.a!", "q": "(b! + b!.c!) | b?.a!",
     "relation": "step"},
    {"id": "r2-subst", "p": "nu a b<a>.a!", "q": "nu a b<c>.a!",
     "relation": "step"},
    {"id": "r3-input", "p": "a?", "q": "b?"},
    {"id": "r3-sum", "p": "a? + c!", "q": "b? + c!"},
    {"id": "r3-expand", "p": "x!.y?.c! + y?.(x! | c!)", "q": "x! | y?.c!"},
    {"id": "r3-clash", "p": "x!.x?.c! + x?.(x! | c!)", "q": "x! | x?.c!"},
    {"id": "r4-noisy", "p": "a?", "q": "b?", "relation": "noisy"},
    {"id": "r4-congruence", "p": "x!.y?.c! + y?.(x! | c!)",
     "q": "x! | y?.c!", "relation": "congruence"},
    {"id": "th1-expansion", "p": "a! | b?", "q": "a!.b? + b?.(a! | 0)"},
    {"id": "th1-prefix", "p": "a! + b!", "q": "a!.b!"},
    {"id": "s6c-weak", "p": "a!.(b! + c!)", "q": "a!.b! + a!.c!",
     "weak": True},
    {"id": "weak-tau", "p": "tau.a!", "q": "a!", "weak": True},
    {"id": "budgeted", "p": "a!.(b! + c!)", "q": "a!.b! + a!.c!",
     "max_states": 1_000},
)


def _requests():
    from repro.store.batch import request_from_record
    return [request_from_record(dict(rec)) for rec in CORPUS]


def _fingerprints(outcome) -> list[str]:
    """One canonical line per result, in request order — the byte-level
    identity the warm run must reproduce."""
    lines = []
    for r in outcome.results:
        evidence = ""
        if r.verdict.evidence is not None and hasattr(r.verdict.evidence,
                                                      "summary"):
            evidence = r.verdict.evidence.summary()
        lines.append(json.dumps(
            [r.request.id, r.verdict.truth.value, r.verdict.reason, evidence],
            separators=(",", ":")))
    return lines


def _run(path: str, requests) -> tuple:
    from repro.store import VerdictStore, run_batch
    with VerdictStore(path) as store:
        t0 = time.perf_counter()
        outcome = run_batch(requests, store=store, workers=0)
        seconds = time.perf_counter() - t0
        counters = store.stats()
    return outcome, seconds, counters


def store_block(quick: bool = False) -> dict:
    """The schema-6 ``"store"`` block: cold vs warm ledger batch."""
    requests = _requests()
    fd, path = tempfile.mkstemp(suffix=".sqlite", prefix="repro-store-")
    os.close(fd)
    os.unlink(path)  # VerdictStore creates it; mkstemp only picked the name
    try:
        cold, cold_s, cold_counters = _run(path, requests)
        warm, warm_s, warm_counters = _run(path, requests)
    finally:
        if os.path.exists(path):
            os.unlink(path)
    identical = _fingerprints(cold) == _fingerprints(warm)
    unknown = sum(r.verdict.is_unknown for r in cold.results)
    recomputed = [w.request.id for c, w in zip(cold.results, warm.results)
                  if not c.verdict.is_unknown and w.source != "store"]
    n = len(requests)
    return {
        "requests": n,
        "quick": quick,
        "cold": {"seconds": cold_s, "hits": cold.store_hits,
                 "computed": cold.computed, "records": cold_counters["records"],
                 "unknown": unknown},
        "warm": {"seconds": warm_s, "hits": warm.store_hits,
                 "computed": warm.computed,
                 "hits_definite": warm_counters["hits_definite"],
                 "hits_unknown": warm_counters["hits_unknown"],
                 "hits_at_equal_budget": warm_counters["hits_at_equal_budget"],
                 "hits_at_larger_budget":
                     warm_counters["hits_at_larger_budget"],
                 "hits_at_smaller_budget":
                     warm_counters["hits_at_smaller_budget"],
                 "recomputed_definite": recomputed},
        "warm_hit_rate": warm.store_hits / n if n else 0.0,
        "seconds_saved": cold_s - warm_s,
        "identical_verdicts": identical,
    }


def gate(block: dict) -> list[str]:
    """The CI acceptance checks; empty when the block passes."""
    failures = []
    if block["warm_hit_rate"] < WARM_HIT_RATE_FLOOR:
        failures.append(
            f"warm hit rate {block['warm_hit_rate']:.0%} below the "
            f"{WARM_HIT_RATE_FLOOR:.0%} floor")
    if not block["identical_verdicts"]:
        failures.append("warm verdicts differ from cold verdicts")
    # Exact, not wall-clock: only a cold UNKNOWN may be computed again.
    if block["warm"]["computed"] > block["cold"]["unknown"]:
        failures.append(
            f"warm run computed {block['warm']['computed']} requests, more "
            f"than the {block['cold']['unknown']} cold UNKNOWN results "
            f"(definite cold verdicts recomputed: "
            f"{block['warm']['recomputed_definite']})")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="CI gate mode (same corpus; nonzero exit on "
                         "hit-rate/identity/recompute failure)")
    ap.add_argument("--json", action="store_true",
                    help="print the raw block as JSON")
    args = ap.parse_args(argv)

    block = store_block(quick=args.quick)
    if args.json:
        print(json.dumps(block, indent=2))
    else:
        print(f"ledger corpus: {block['requests']} requests")
        print(f"cold: {block['cold']['seconds']:.3f}s, "
              f"{block['cold']['computed']} computed, "
              f"{block['cold']['records']} recorded")
        print(f"warm: {block['warm']['seconds']:.3f}s, "
              f"{block['warm']['hits']} hits "
              f"({block['warm_hit_rate']:.0%}), "
              f"{block['warm']['computed']} recomputed")
        print(f"saved {block['seconds_saved']:.3f}s; verdicts "
              + ("byte-identical" if block["identical_verdicts"]
                 else "DIFFER"))
    failures = gate(block)
    for f in failures:
        print(f"GATE FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
