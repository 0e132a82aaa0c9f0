#!/usr/bin/env python
"""Regenerate the EXPERIMENTS.md ledger, live.

Since the paper reports theorems rather than measurements, the "table" it
defines is the ledger of claims; this harness recomputes every verdict
with the implemented checkers and prints the rows.  A MISMATCH line means
the library no longer reproduces the paper.

Run:  python benchmarks/report.py [--json [PATH]] [--rows A,B,...] [--quick]

``--json`` additionally writes per-row wall-clock times and verdicts to
``BENCH_report.json`` (or PATH), so the performance trajectory of the
checkers is tracked PR over PR.  ``--quick`` restricts to a cheap smoke
subset (used by CI); ``--rows`` selects experiments by name.

Every row runs under an ambient :class:`repro.engine.Budget` meter (a
generous safety-net cap, far above any row's real consumption), so the
JSON rows carry the engine's resource accounting — states/pairs charged
and wall-clock — next to the verdict (schema 3).  A row whose checkers
come back UNKNOWN is reported as INDETERMINATE rather than MISMATCH.

The harness runs with ``repro.obs`` enabled: every row executes inside an
``exp.<name>`` span, and the JSON payload embeds the span aggregates and
engine counters under the ``"obs"`` key — so the ledger explains *where*
each row's time went (states expanded, partition splits, game pairs; see
docs/observability.md).

Schema 4 adds a ``"lint"`` block: the static analyzer
(:mod:`repro.lint`) runs over the apps/examples corpus and reports
per-pass wall-clock totals and per-code diagnostic counts, tracking
analyzer cost on a realistic term mix PR over PR.

Schema 5 adds an ``"onthefly"`` block (see ``bench_onthefly.py``): the
curated A/B rows comparing the on-the-fly product core against the
global oracle under one shared budget — pair counts, wall-clock and
verdicts for both strategies, plus the intern-table hit rate.  In
``--quick`` mode the block uses the CI gate's 50k-pair pool.

Schema 6 adds a ``"store"`` block (see ``bench_store.py``): the ledger
pair corpus run cold then warm against a temporary
:class:`~repro.store.VerdictStore` — hit/miss and reuse-by-budget
counts, the wall-clock saved by the warm run, and whether the warm
verdicts are byte-identical to the cold ones (they must be).

Schema 8 adds the calculus-backend rows: ``LOSSY1`` / ``WIFI1`` pin the
non-default semantics (noisy-channel hierarchy, topology-bounded
broadcast), and the backend-generic rows ``B1`` / ``B2`` (dichotomy,
UNKNOWN-on-trip) run under whichever backend ``--calculus SPEC`` selects
— CI smokes the ledger a second time under ``--calculus lossy``.  The
lint block records the backend it linted the corpus with.

Schema 9 adds a ``"flow"`` block (see ``bench_flow.py``): the static
pre-solver's hit rate on barb queries over the lint corpus (the reach
queries answered with zero states explored), and the A/B row comparing
``reach`` with and without the pre-solver on a flow-refutable
``broadcast_star`` variant — the abstraction answers in O(term) what
exhaustive search pays 2^n states for.

Schema 10 drops schema 7's ``"parallel"`` block together with the
sharded frontier engine it measured (``repro batch --workers`` is the
one process pool left), and takes the ``"cache"`` snapshot right after
the claim rows: the flow/on-the-fly/store blocks clear the caches for
their cold runs, so a later snapshot described the last of those runs
instead of the ledger.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

#: Experiment registry: (name, claim, thunk).  Thunks return the verdict.
EXPERIMENTS: list[tuple[str, str, Callable[[], bool]]] = []

#: The cheap subset exercised by CI's smoke run.
QUICK_ROWS = ("T2/T3", "R1", "R2", "TH1", "EX1", "B1", "B2")

#: Backend spec the backend-generic rows (B1, B2) and the lint block run
#: under; set from ``--calculus`` (CI smokes the ledger under "lossy").
CALCULUS = "bpi"


def experiment(name: str, claim: str):
    def register(fn: Callable[[], bool]) -> Callable[[], bool]:
        EXPERIMENTS.append((name, claim, fn))
        return fn
    return register


@experiment("T2/T3", "broadcast serves all listeners atomically; dichotomy holds")
def _t2_t3() -> bool:
    from repro.core.parser import parse
    from repro.core.semantics import step_transitions
    return any(str(tgt) == "0 | c! | d!"
               for _, tgt in step_transitions(parse("a! | a?.c! | a?.d!")))


@experiment("R1", "~b holds for a<b> vs a<b>.c<d> but breaks under nu a")
def _r1() -> bool:
    from repro.core.parser import parse
    from repro.equiv.barbed import strong_barbed_bisimilar
    return (strong_barbed_bisimilar(parse("a<b>"), parse("a<b>.c<d>"))
            and not strong_barbed_bisimilar(parse("nu a a<b>"),
                                            parse("nu a a<b>.c<d>")))


@experiment("R2", "~phi not preserved by || nor nu; ~b/~phi incomparable")
def _r2() -> bool:
    from repro.core.parser import parse
    from repro.equiv.barbed import strong_barbed_bisimilar
    from repro.equiv.step import strong_step_bisimilar
    p1, q1, r1 = parse("b! + tau.c!"), parse("b! + b!.c!"), parse("b?.a!")
    return (strong_step_bisimilar(p1, q1)
            and not strong_step_bisimilar(p1 | r1, q1 | r1)
            and strong_step_bisimilar(parse("b<a>.a!"), parse("b<c>.a!"))
            and not strong_step_bisimilar(parse("nu a b<a>.a!"),
                                          parse("nu a b<c>.a!"))
            and not strong_barbed_bisimilar(p1, q1)
            and strong_barbed_bisimilar(parse("nu a b<a>.a!"),
                                        parse("nu a b<c>.a!")))


@experiment("R3", "~ not preserved by + nor substitution")
def _r3() -> bool:
    from repro.core.parser import parse
    from repro.equiv.labelled import strong_bisimilar
    return (strong_bisimilar(parse("a?"), parse("b?"))
            and not strong_bisimilar(parse("a? + c!"), parse("b? + c!"))
            and strong_bisimilar(parse("x!.y?.c! + y?.(x! | c!)"),
                                 parse("x! | y?.c!"))
            and not strong_bisimilar(parse("x!.x?.c! + x?.(x! | c!)"),
                                     parse("x! | x?.c!")))


@experiment("R4", "~c strictly inside ~+ strictly inside ~")
def _r4() -> bool:
    from repro.core.parser import parse
    from repro.equiv.congruence import congruent
    from repro.equiv.labelled import strong_bisimilar
    from repro.equiv.noisy import strict_bisimilar
    pr3 = parse("x!.y?.c! + y?.(x! | c!)")
    qr3 = parse("x! | y?.c!")
    return (strong_bisimilar(parse("a?"), parse("b?"))
            and not strict_bisimilar(parse("a?"), parse("b?"))
            and strict_bisimilar(pr3, qr3) and not congruent(pr3, qr3))


@experiment("TH1", "the three equivalences agree (curated pairs)")
def _th1() -> bool:
    from repro.core.parser import parse
    from repro.equiv.barbed import strong_barbed_bisimilar
    from repro.equiv.labelled import strong_bisimilar
    from repro.equiv.step import strong_step_bisimilar
    agree = True
    for lhs, rhs in [("a?", "0"), ("a! | b?", "a!.b? + b?.(a! | 0)"),
                     ("a!", "b!"), ("a! + b!", "a!.b!")]:
        pl, pr = parse(lhs), parse(rhs)
        v = strong_bisimilar(pl, pr)
        agree &= (strong_barbed_bisimilar(pl, pr) == v
                  == strong_step_bisimilar(pl, pr))
    return agree


@experiment("TH6", "every Table 6/7 axiom instance is a congruence")
def _th6() -> bool:
    from repro.axioms.system import all_axiom_instances
    from repro.core.parser import parse
    from repro.equiv.congruence import congruent
    return all(congruent(eq.lhs, eq.rhs) for eq in all_axiom_instances(
        parse("a(w).w<b>"), parse("c<c>"), parse("tau.b<a>")))


@experiment("TH7", "syntactic decision == semantic congruence (exhaustive pool)")
def _th7() -> bool:
    import itertools

    from repro.axioms.decide import congruent_finite
    from repro.core.syntax import NIL, Input, Output, Sum, Tau
    from repro.equiv.congruence import congruent
    atoms = [NIL, Output("a", (), NIL), Input("a", (), NIL), Tau(NIL)]
    pool = atoms + [Sum(x, y) for x, y in itertools.product(atoms, repeat=2)]
    return all(congruent_finite(p, q) == congruent(p, q)
               for p, q in itertools.combinations(pool[:12], 2))


@experiment("EX1", "cycle detector agrees with the graph algorithm")
def _ex1() -> bool:
    from repro.apps.cycle_detection import detects_cycle, has_cycle_reference
    graphs = [[("a", "b"), ("b", "c"), ("c", "a")], [("a", "b"), ("b", "c")],
              [("a", "b"), ("b", "a")], [("a", "b")]]
    return all(detects_cycle(g) == has_cycle_reference(g) for g in graphs)


@experiment("EX2", "transaction detector agrees with the serialisability check")
def _ex2() -> bool:
    from repro.apps.transactions import (
        Transaction as T,
        detects_inconsistency,
        is_consistent_reference,
    )
    logs = [[T("t1", "w", "j", "p1"), T("t2", "w", "j", "p2")],
            [T("t1", "r", "j", "p1"), T("t2", "r", "j", "p2")],
            [T("t1", "r", "j", "p1"), T("t2", "w", "j", "p2"),
             T("t2", "r", "k", "p2"), T("t1", "w", "k", "p1")]]
    return all(detects_inconsistency(log) == (not is_consistent_reference(log))
               for log in logs)


@experiment("S6a", "encoded RAM reproduces the reference interpreter (2+3)")
def _s6a() -> bool:
    from repro.apps.ram import (
        emitted_channels,
        program_add,
        run_encoded,
        run_reference,
    )
    prog = program_add("x", "y", "s")
    _, ref = run_reference(prog, {"x": 2, "y": 3})
    trace = run_encoded(prog, {"x": 2, "y": 3}, max_steps=20_000)
    return (trace.observed("halted")
            and len(emitted_channels(trace, prog)) == len(ref))


@experiment("S6c", "a!.(b!+c!) vs a!.b!+a!.c!: not ~~, but may-equivalent")
def _s6c() -> bool:
    from repro.core.parser import parse
    from repro.equiv.labelled import weak_bisimilar
    from repro.equiv.maytesting import may_equivalent_sampled, output_traces
    lhs, rhs = parse("a!.(b! + c!)"), parse("a!.b! + a!.c!")
    return (not weak_bisimilar(lhs, rhs)
            and may_equivalent_sampled(lhs, rhs)
            and output_traces(lhs) == output_traces(rhs))


@experiment("pi", "congruence-property swap vs the pi-calculus")
def _pi() -> bool:
    from repro.calculi.pi import pi_barbed_bisimilar
    from repro.core.parser import parse
    from repro.equiv.barbed import strong_barbed_bisimilar
    p0, q0 = parse("a<b>"), parse("a<b>.c<d>")
    r = parse("a(x).0")
    return (strong_barbed_bisimilar(p0 | r, q0 | r)
            and not pi_barbed_bisimilar(p0 | r, q0 | r)
            and pi_barbed_bisimilar(parse("nu a a<b>"), parse("nu a a<b>.c<d>"))
            and not strong_barbed_bisimilar(parse("nu a a<b>"),
                                            parse("nu a a<b>.c<d>")))


@experiment("B1", "input/discard dichotomy holds under the selected backend")
def _b1() -> bool:
    from repro.calculi import registry
    from repro.calculi.backend import dichotomy_channels
    from repro.core.parser import parse
    backend = registry.resolve(CALCULUS)
    pool = ("a? | b!", "a?.c! + b?", "nu a (a? | b?)", "tau.a?",
            "[a=a]{b?}{c?} | a!", "a! | (b? | c?.a!)")
    ok = True
    for src in pool:
        p = parse(src)
        for a in sorted(dichotomy_channels(p, ("probe",))):
            ok &= bool(backend.input_continuations(p, a, ())) \
                == (not backend.discards(p, a))
    return ok


@experiment("B2", "tripped budgets degrade to UNKNOWN under the selected backend")
def _b2() -> bool:
    from repro import check
    from repro.engine import Budget
    p, q = "tau.tau.tau.tau.a!", "tau.tau.tau.tau.b!"
    tripped = check(p, q, budget=Budget(max_states=2), calculus=CALCULUS)
    settled = check(p, q, calculus=CALCULUS)
    return tripped.is_unknown and settled.is_false


@experiment("LOSSY1", "noisy-channel hierarchy is strict in both directions")
def _lossy1() -> bool:
    from repro import check
    lossy_equates = ("a(x).c!", "a(x).c! + a(x).a(x).c!")
    reliable_equates = ("a?.c! | a?.d!", "a?.(c! | d!)")
    return (check(*lossy_equates, calculus="lossy").is_true
            and check(*lossy_equates).is_false
            and check(*reliable_equates).is_true
            and check(*reliable_equates, calculus="lossy").is_false)


@experiment("WIFI1", "broadcast reaches topology neighbours only; mutation re-routes")
def _wifi1() -> bool:
    from repro import reach
    from repro.apps.radio import cellular_backend
    p = "a! | (b?.ok! | c?.far!)"
    wider = cellular_backend(("a", "b")).connect("a", "c")
    return (reach(p, "ok", calculus="wireless:a-b").is_true
            and reach(p, "far", calculus="wireless:a-b").is_false
            and reach(p, "far", calculus=wider).is_true)


def lint_block(calculus: str = "bpi") -> dict:
    """Static-analyzer cost and findings over the apps/examples corpus."""
    from repro.lint import corpus, run_lint
    entries = corpus()
    pass_seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    dirty = []
    t0 = time.perf_counter()
    for name, term in entries:
        report = run_lint(term, calculus=calculus)
        for code, secs in report.timings.items():
            pass_seconds[code] = pass_seconds.get(code, 0.0) + secs
        for code, n in report.counts().items():
            counts[code] = counts.get(code, 0) + n
        if not report.ok:
            dirty.append(name)
    return {
        "terms": len(entries),
        "calculus": calculus,
        "clean": len(entries) - len(dirty),
        "dirty": dirty,
        "seconds": time.perf_counter() - t0,
        "pass_seconds": pass_seconds,
        "counts": counts,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", nargs="?", const="BENCH_report.json",
                    default=None, metavar="PATH",
                    help="write per-row wall-clock times to PATH "
                         "(default BENCH_report.json)")
    ap.add_argument("--rows", default=None,
                    help="comma-separated experiment names to run")
    ap.add_argument("--quick", action="store_true",
                    help=f"run only the smoke subset {','.join(QUICK_ROWS)}")
    ap.add_argument("--calculus", default="bpi", metavar="SPEC",
                    help="backend the backend-generic rows (B1, B2) and "
                         "the lint block run under: 'bpi' (default), "
                         "'lossy' or 'wireless:a-b,...'")
    args = ap.parse_args(argv)
    global CALCULUS
    CALCULUS = args.calculus

    selected = None
    if args.rows:
        selected = {r.strip() for r in args.rows.split(",")}
    elif args.quick:
        selected = set(QUICK_ROWS)
    todo = [(n, c, f) for n, c, f in EXPERIMENTS
            if selected is None or n in selected]
    if selected is not None:
        unknown = selected - {n for n, _, _ in todo}
        if unknown:
            ap.error(f"unknown experiment rows: {sorted(unknown)}")

    from repro import obs
    obs.reset()
    obs.enable()

    from repro.engine import Budget, IndeterminateVerdict, govern

    print(f"{'exp':6s} {'verdict':9s} {'time':>7s}  claim")
    print("-" * 100)
    rows = []
    wall0 = time.time()
    for name, claim, fn in todo:
        t0 = time.perf_counter()
        # Generous harness-wide pool: meters every row's engine work and
        # keeps a safety net far above any row's real consumption.
        meter = Budget(max_states=5_000_000).meter()
        with obs.span(f"exp.{name}") as sp, govern(meter):
            try:
                verdict = bool(fn())
            except IndeterminateVerdict:
                verdict = None
            sp.set(verdict=verdict)
        elapsed = time.perf_counter() - t0
        status = ("ok " if verdict
                  else "INDETERMINATE" if verdict is None else "MISMATCH")
        print(f"{name:6s} {status:9s} {elapsed:6.2f}s  {claim}")
        rows.append({"exp": name, "claim": claim, "verdict": verdict,
                     "truth": {True: "true", False: "false",
                               None: "unknown"}[verdict],
                     "seconds": elapsed, "budget": meter.stats()})
    print("-" * 100)
    bad = [r["exp"] for r in rows if r["verdict"] is not True]
    print(f"{len(rows)} claims checked; "
          + ("ALL REPRODUCED" if not bad else f"MISMATCHES: {bad}"))

    if args.json:
        from repro.core import cache_stats

        from benchmarks.bench_flow import flow_block
        from benchmarks.bench_onthefly import ab_block
        from benchmarks.bench_store import store_block
        cache = cache_stats()  # before the sub-blocks clear the caches
        payload = {
            "schema": 10,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "total_seconds": time.time() - wall0,
            "rows": rows,
            "lint": lint_block(calculus=args.calculus),
            "flow": flow_block(quick=args.quick),
            "onthefly": ab_block(quick=args.quick),
            "store": store_block(quick=args.quick),
            "cache": cache,
            "obs": obs.snapshot(),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
