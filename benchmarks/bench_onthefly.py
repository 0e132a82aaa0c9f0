#!/usr/bin/env python
"""A/B benchmark: on-the-fly equivalence checking vs the global oracle.

The curated pairs put both strategies on the same
:class:`~repro.engine.Budget` pool and record what each one does with it:

* ``star12-distinguished`` — ``broadcast_star(12)`` against the variant
  whose receiver 0 replies on the wrong channel (strong labelled).  The
  difference is observable two transitions in, but the product space is
  exponential: the global pair game burns the whole pool and returns
  UNKNOWN while the on-the-fly core refutes in a handful of pairs.
* ``star12-bisimilar-idle`` — ``broadcast_star(12)`` against itself
  composed with an inert private-channel listener (strong labelled).
  Up-to-parallel-context strips the common components, so the on-the-fly
  core proves TRUE from a one-pair relation; the global game must
  enumerate the exponential product and trips.
* ``relay5-distinguished`` — the hidden relay star (weak labelled),
  whose post-broadcast tau-closure has 2^n members.  The eager oracle
  recomputes that closure per pair and melts even a 5M-state pool in
  seconds; the demand-driven ``LazyReach`` pays each state once and the
  distinguishing output surfaces after ~1.5k pairs.

Run ``python benchmarks/bench_onthefly.py`` for the full ledger
(5M-state pools, wall-clock safety deadline on the eager rows) or
``--quick`` for the CI perf gate: the 50k-pair pool under which every
on-the-fly verdict must be definite and correct while the global
strategy trips on the starred rows, and every on-the-fly row must charge
the pairs the ledger records — exit status 1 otherwise.
``report.py`` embeds the same A/B rows in BENCH_report.json (schema 5)
via :func:`ab_block`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.helpers import (  # noqa: E402
    broadcast_star,
    broadcast_star_wrong,
    idle_listener,
    relay_star,
)

#: The shared pools: the CI gate's pair pool and the full ledger's.
QUICK_MAX_STATES = 50_000
FULL_MAX_STATES = 5_000_000

#: The pairs each on-the-fly row charges, as the ledger records them.
#: The search is deterministic and these counts hold on every pool that
#: does not trip, so a different count means the search itself moved.
ONTHEFLY_CHARGES = {
    "star12-distinguished": 2,
    "star12-bisimilar-idle": 1,
    "relay5-distinguished": 1493,
}

#: Wall-clock safety net for eager rows whose 5M trip would take hours
#: (the star rows charge the pool once per *pair*, at ~1.5 ms each).
FULL_GLOBAL_DEADLINE = 120.0


def _rows():
    """The curated pair registry (built lazily: repro imports inside)."""
    from repro.core.builder import par
    from repro.equiv.onthefly import DEFAULT_CLOSURES, ParallelContextClosure

    star = broadcast_star(12)
    return (
        {
            "name": "star12-distinguished",
            "relation": "strong labelled",
            "pair": (star, broadcast_star_wrong(12)),
            "weak": False,
            "expect": False,
            "closures": None,
            # global trips the quick pool (that IS the gate), ~80s
            "global_in_quick": True,
        },
        {
            "name": "star12-bisimilar-idle",
            "relation": "strong labelled (up-to-parallel-context)",
            "pair": (star, par(star, idle_listener())),
            "weak": False,
            "expect": True,
            "closures": (*DEFAULT_CLOSURES, ParallelContextClosure()),
            # same exponential enumeration as above: skip the slow
            # duplicate trip in the CI gate, keep it in the full ledger
            "global_in_quick": False,
        },
        {
            "name": "relay5-distinguished",
            "relation": "weak labelled",
            "pair": (relay_star(5), relay_star(5, wrong=0)),
            "weak": True,
            "expect": False,
            "closures": None,
            "global_in_quick": True,
        },
    )


def _run_one(p, q, *, weak, strategy, closures, max_states, deadline=None):
    from repro.engine import Budget
    from repro.equiv.labelled import labelled_bisimilar

    budget = Budget(max_states=max_states, deadline=deadline)
    meter = budget.meter()
    kwargs = {"weak": weak, "budget": meter, "strategy": strategy}
    if closures is not None and strategy == "onthefly":
        kwargs["closures"] = closures
    t0 = time.perf_counter()
    verdict = labelled_bisimilar(p, q, **kwargs)
    elapsed = time.perf_counter() - t0
    return {
        "truth": str(verdict.truth.name).lower(),
        "definite": verdict.is_definite,
        "charges": meter.states,
        "seconds": elapsed,
        "reason": verdict.reason if verdict.is_unknown else None,
    }


def ab_block(quick: bool = False) -> dict:
    """The schema-5 ``"onthefly"`` payload: A/B rows + intern hit-rate.

    Both strategies get the same max-states pool; in full mode the
    global star rows additionally carry a wall-clock safety deadline
    (recorded in the row) because their 5M max-states trip is hours
    away at the eager checker's pace.
    """
    from repro.core.syntax import intern_stats

    max_states = QUICK_MAX_STATES if quick else FULL_MAX_STATES
    rows = []
    for spec in _rows():
        p, q = spec["pair"]
        row = {
            "name": spec["name"],
            "relation": spec["relation"],
            "expected": spec["expect"],
            "max_states": max_states,
            "onthefly": _run_one(p, q, weak=spec["weak"],
                                 strategy="onthefly",
                                 closures=spec["closures"],
                                 max_states=max_states),
        }
        run_global = spec["global_in_quick"] or not quick
        if run_global:
            deadline = None
            if not quick and spec["name"].startswith("star"):
                deadline = FULL_GLOBAL_DEADLINE
            row["global"] = _run_one(p, q, weak=spec["weak"],
                                     strategy="global", closures=None,
                                     max_states=max_states,
                                     deadline=deadline)
            if deadline is not None:
                row["global"]["deadline_s"] = deadline
        rows.append(row)
    stats = intern_stats()
    return {"quick": quick, "max_states": max_states, "rows": rows,
            "intern_hit_rate": stats["hit_rate"], "interned": stats["interned"]}


def gate(block: dict) -> list[str]:
    """The CI assertions; returns human-readable failures (empty = pass)."""
    failures = []
    for row in block["rows"]:
        want = "true" if row["expected"] else "false"
        fly = row["onthefly"]
        if fly["truth"] != want:
            failures.append(
                f"{row['name']}: onthefly returned {fly['truth']} "
                f"(expected {want}) after {fly['charges']} pairs")
        charges = ONTHEFLY_CHARGES[row["name"]]
        if fly["charges"] != charges:
            failures.append(
                f"{row['name']}: onthefly charged {fly['charges']} pairs "
                f"(the ledger records {charges})")
        glob = row.get("global")
        if glob is not None and glob["truth"] != "unknown":
            failures.append(
                f"{row['name']}: global was expected to trip the "
                f"{row['max_states']}-state pool but returned "
                f"{glob['truth']} after {glob['charges']} charges")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help=f"CI perf gate: {QUICK_MAX_STATES}-pair pool, "
                         "assert onthefly decides where global trips")
    ap.add_argument("--json", nargs="?", const="-", default=None,
                    metavar="PATH", help="dump the A/B block as JSON "
                                         "(default: stdout)")
    args = ap.parse_args(argv)

    block = ab_block(quick=args.quick)
    print(f"{'row':26s} {'strategy':9s} {'verdict':8s} "
          f"{'charges':>9s} {'time':>8s}")
    print("-" * 66)
    for row in block["rows"]:
        for strat in ("onthefly", "global"):
            res = row.get(strat)
            if res is None:
                continue
            print(f"{row['name']:26s} {strat:9s} {res['truth']:8s} "
                  f"{res['charges']:9d} {res['seconds']:7.2f}s")
    print("-" * 66)
    print(f"intern hit-rate {block['intern_hit_rate']:.3f} "
          f"({block['interned']} nodes)")

    if args.json:
        text = json.dumps(block, indent=2)
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text + "\n")
            print(f"wrote {args.json}")

    failures = gate(block)
    for line in failures:
        print(f"GATE FAILURE: {line}", file=sys.stderr)
    if not failures:
        mode = "quick gate" if args.quick else "full ledger"
        print(f"onthefly {mode}: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
