#!/usr/bin/env python
"""Flow pre-solver A/B: the static abstraction against exhaustive search.

Two measurements:

* **corpus hit-rate** — every term of the lint corpus (the paper's
  applications plus the doc examples) is probed with ``reach``-style
  barb queries: each free channel, plus one name that does not occur.
  The hit rate is the fraction the flow abstraction answers definitively
  (provably-inert channel, zero states explored) — the queries the
  explorer never has to run.

* **A/B row** — ``broadcast_star(n) | done(x).sig<x>`` probed on
  ``sig``: nobody ever broadcasts on ``done``, so the forwarder is dead
  and the barb is flow-refutable in O(term) time, while the exhaustive
  answer needs the full 2^n receiver interleaving.  The row records both
  wall-clocks and the explored state count the pre-solver avoided.

``report.py`` embeds the result in BENCH_report.json (schema 9, key
``"flow"``); ``python benchmarks/bench_flow.py --quick`` is the CI
gate — exit 1 when the pre-solver stops answering (zero hits), claims a
wrong answer, or the A/B pair disagrees.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

#: Star size for the A/B term (2^n states without the pre-solver).
AB_RECEIVERS = 12
AB_RECEIVERS_QUICK = 9

#: A name guaranteed absent from every corpus term.
ABSENT = "__absent__"


def _ab_term(n: int):
    from benchmarks.helpers import broadcast_star, inp, out, par
    return par(broadcast_star(n), inp("done", ("x",), out("sig", "x")))


def flow_block(quick: bool = False) -> dict:
    """The BENCH_report.json ``"flow"`` block (schema 9)."""
    from repro.core.freenames import free_names
    from repro.runtime.analysis import can_reach_barb
    from repro.flow import clear_caches, flow_refutes_barb
    from repro.lint import corpus

    clear_caches()
    entries = corpus()
    queries = 0
    hits = 0
    t0 = time.perf_counter()
    for _name, term in entries:
        for chan in sorted(free_names(term)) + [ABSENT]:
            queries += 1
            if flow_refutes_barb(term, chan) is not None:
                hits += 1
    presolve_seconds = time.perf_counter() - t0

    n = AB_RECEIVERS_QUICK if quick else AB_RECEIVERS
    star = _ab_term(n)
    t0 = time.perf_counter()
    fast = can_reach_barb(star, "sig")
    fast_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = can_reach_barb(star, "sig", presolve=False)
    slow_seconds = time.perf_counter() - t0

    return {
        "corpus": {
            "terms": len(entries),
            "queries": queries,
            "presolver_hits": hits,
            "hit_rate": hits / queries if queries else 0.0,
            "seconds": presolve_seconds,
        },
        "ab": {
            "term": f"broadcast_star({n}) | done(x).sig<x>",
            "chan": "sig",
            "presolved": {
                "truth": fast.truth.value,
                "states": fast.stats.get("states"),
                "presolve": fast.stats.get("presolve"),
                "seconds": fast_seconds,
            },
            "explored": {
                "truth": slow.truth.value,
                "states": slow.stats.get("states"),
                "seconds": slow_seconds,
            },
            "agree": fast.truth == slow.truth,
            "speedup": slow_seconds / fast_seconds if fast_seconds else None,
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help=f"use the {AB_RECEIVERS_QUICK}-receiver star "
                         f"(the CI gate) instead of {AB_RECEIVERS}")
    ap.add_argument("--json", action="store_true",
                    help="print the block as JSON instead of a summary")
    args = ap.parse_args(argv)

    block = flow_block(quick=args.quick)
    if args.json:
        json.dump(block, sys.stdout, indent=2)
        print()
    else:
        c, ab = block["corpus"], block["ab"]
        print(f"corpus: {c['presolver_hits']}/{c['queries']} barb queries "
              f"answered statically ({c['hit_rate']:.0%}) "
              f"over {c['terms']} terms in {c['seconds']:.3f}s")
        print(f"A/B {ab['term']} ? {ab['chan']}:")
        print(f"  presolved: {ab['presolved']['truth']} in "
              f"{ab['presolved']['seconds']:.4f}s "
              f"({ab['presolved']['states']} states)")
        print(f"  explored:  {ab['explored']['truth']} in "
              f"{ab['explored']['seconds']:.4f}s "
              f"({ab['explored']['states']} states)")

    ok = (block["corpus"]["presolver_hits"] >= 1
          and block["ab"]["presolved"]["presolve"] == "flow"
          and block["ab"]["presolved"]["states"] == 0
          and block["ab"]["explored"]["states"] > 0
          and block["ab"]["agree"])
    if not ok:
        print("flow gate FAILED", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
