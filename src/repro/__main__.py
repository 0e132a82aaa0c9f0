"""Command-line interface:  python -m repro <command> ...

Commands
--------
steps "<process>"
    Print the autonomous transitions (outputs and taus) of a term.
moves "<process>" [--fresh N]
    Print the full transition set, inputs instantiated over fn + N fresh.
run "<process>" [--seed S] [--max-steps N]
    Execute a closed system under the seeded scheduler; print the trace.
eq "<p>" "<q>" [--relation barbed|step|labelled|noisy|congruence] [--weak]
   [--strategy onthefly|global]
    Decide a behavioural equivalence.  The bisimilarity relations run
    on-the-fly by default; --strategy global forces the eager oracle.
barb "<process>" <channel> [--max-states N]
    Bounded search: can the system reach a broadcast on the channel?
canon "<process>"
    Print the canonical state form.
lint "<process>" [--select CODES] [--ignore CODES] [--format text|json]
    Static analysis (BP diagnostics); `--corpus` lints every apps/examples
    term instead.  Exit 0 clean, 1 findings, 2 parse failure.
flow "<process>" [--closed] [--barb CHAN] [--format text|json]
    The channel-capability flow analysis: per-channel may-broadcast /
    may-listen / may-extrude / may-carry sets.  With --barb CHAN the
    static pre-solver answers the reachability question: exit 0 when a
    barb on CHAN may be reachable, 1 when it is proven inert (no
    exploration), 2 on a parse failure.  `--corpus` summarises every
    apps/examples term.
batch FILE [--store PATH] [--workers N] [--format text|json]
    Answer many check requests (JSON-lines; `-` reads stdin), deduped
    against each other and the store, misses fanned out over a process
    pool.  Exit 0 all definite, 2 some UNKNOWN or malformed input.
serve [--store PATH]
    Long-lived line service: one JSON-lines request in, one JSON verdict
    line out (flushed), until stdin closes.  Always exits 0 once stdin
    is drained — malformed requests and UNKNOWN verdicts are reported
    in-band as JSON lines (an ``{"error": ...}`` line per bad request),
    never via the exit status, so a supervisor restarting on non-zero
    exits does not bounce the service over one bad client line.  This
    is deliberately different from `batch`, which exits 2 on any
    UNKNOWN or malformed input.
graph "<process>" [--minimize]
    Print the step LTS as Graphviz DOT; exit 2 with a truncated graph
    when the budget trips.

The decision paths (`eq`, `batch`, `serve`, `repro.api.check`) accept
--store PATH: a persistent content-addressed verdict cache (sqlite).
Cached definite verdicts answer any request with an equal-or-larger
budget; cached UNKNOWNs only short-circuit equal-or-smaller budgets
(see docs/service.md).

Budget (before or after the subcommand):
--max-states N  cap the number of explored states/pairs
--timeout S     wall-clock deadline in seconds

Exit status of the decision commands (eq, barb): 0 = definite yes
(equivalent / reachable), 1 = definite no, 2 = UNKNOWN — the budget
tripped before the bounded search completed.

Observability (before or after the subcommand; see docs/observability.md):
--trace PATH    record tracing spans, write chrome://tracing JSON to PATH
--metrics       print engine counters and the span tree to stderr at exit
--progress      rate-limited progress heartbeats on stderr during long runs

Process syntax: see `repro.core.parser` (e.g. "a<v> | a(x).x!").  The
engine commands (steps, moves, run, eq, barb, canon, graph) take only
processes in the paper's sense, closed terms with guarded recursion; an
open or unguarded term prints ``error: ...`` and exits 2.
"""

from __future__ import annotations

import argparse
import sys

from .core.canonical import canonical_state
from .core.freenames import NotAProcess, free_names, validate
from .core.names import NameUniverse
from .core.parser import ParseError, parse
from .core.pretty import pretty
from .core.syntax import Process
from .calculi import registry as _registry
from .engine.budget import Budget, BudgetExceeded
from .runtime.analysis import can_reach_barb

#: Exit status when a decision command's budget tripped (UNKNOWN).
EXIT_UNKNOWN = 2


def _process(text: str) -> Process:
    """Parse *text* and admit it to the engine: closed and guarded."""
    p = parse(text)
    validate(p)
    return p


def _budget_from(args: argparse.Namespace,
                 default_states: int | None = None) -> Budget:
    """The budget the command should run under, from the CLI flags."""
    max_states = getattr(args, "max_states", None)
    timeout = getattr(args, "timeout", None)
    if max_states is None:
        max_states = default_states
    return Budget(max_states=max_states, deadline=timeout)


def _cmd_steps(args: argparse.Namespace) -> int:
    p = _process(args.process)
    backend = _registry.resolve(args.calculus)
    moves = backend.step_transitions(p)
    if not moves:
        print("(quiescent)")
    for action, target in moves:
        print(f"--{action}-->  {pretty(target)}")
    return 0


def _cmd_moves(args: argparse.Namespace) -> int:
    p = _process(args.process)
    backend = _registry.resolve(args.calculus)
    universe = NameUniverse(free_names(p), args.fresh)
    for action, target in backend.transitions(p, universe):
        print(f"--{action}-->  {pretty(target)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .runtime.simulator import run as sim_run
    p = _process(args.process)
    trace = sim_run(p, seed=args.seed, max_steps=args.max_steps,
                    calculus=args.calculus)
    print(trace)
    print("final:", pretty(trace.final))
    return 0


def _cmd_eq(args: argparse.Namespace) -> int:
    from .api import check

    from .equiv.onthefly import PartialProduct

    budget = _budget_from(args)
    verdict = check(_process(args.p), _process(args.q),
                    relation=args.relation, weak=args.weak, budget=budget,
                    strategy=args.strategy, store=args.store,
                    calculus=args.calculus)
    kind = ("weak " if args.weak else "strong ") + args.relation
    cached = " [store]" if verdict.stats.get("store") == "hit" else ""
    if verdict.is_unknown:
        detail = (f" {verdict.evidence.summary()}"
                  if isinstance(verdict.evidence, PartialProduct) else "")
        print(f"{kind}: UNKNOWN ({verdict.reason}){detail}{cached}")
        return EXIT_UNKNOWN
    word = "EQUIVALENT" if verdict.is_true else "DIFFERENT"
    print(f"{kind}: {word}{cached}")
    return 0 if verdict.is_true else 1


def _cmd_barb(args: argparse.Namespace) -> int:
    p = _process(args.process)
    budget = _budget_from(args, default_states=50_000)
    verdict = can_reach_barb(p, args.channel, budget=budget,
                             collapse_duplicates=True,
                             calculus=args.calculus,
                             presolve=not args.no_presolve)
    if verdict.stats.get("presolve") == "flow":
        scope = " (flow pre-solver, 0 states explored)"
    else:
        scope = ("" if budget.max_states is None
                 else f" (within {budget.max_states} states)")
    if verdict.is_unknown:
        print(f"{args.channel}: UNKNOWN ({verdict.reason}){scope}")
        return EXIT_UNKNOWN
    word = "reachable" if verdict.is_true else "not reachable"
    print(f"{args.channel}: {word}{scope}")
    return 0 if verdict.is_true else 1


def _cmd_canon(args: argparse.Namespace) -> int:
    print(pretty(canonical_state(_process(args.process))))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .lint.engine import run_lint

    if args.corpus:
        if args.process is not None:
            print("lint: --corpus takes no process argument", file=sys.stderr)
            return 2
        from .lint.corpus import corpus
        reports = [(name, run_lint(term, select=args.select,
                                   ignore=args.ignore,
                                   calculus=args.calculus))
                   for name, term in corpus()]
        dirty = sum(not r.ok for _, r in reports)
        if args.format == "json":
            print(json.dumps({name: r.to_json() for name, r in reports},
                             indent=2))
        else:
            for name, report in reports:
                print(f"{name}: {report.summary()}")
                if not report.ok:
                    for d in report.diagnostics:
                        print(f"  {d.format()}")
            print(f"corpus: {len(reports) - dirty}/{len(reports)} clean")
        return 0 if dirty == 0 else 1
    if args.process is None:
        print("lint: need a process term (or --corpus)", file=sys.stderr)
        return 2
    from .api import lint as api_lint
    report = api_lint(args.process, select=args.select, ignore=args.ignore,
                      calculus=args.calculus)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.format_text())
    return 0 if report.ok else 1


def _cmd_flow(args: argparse.Namespace) -> int:
    import json

    from .flow.analysis import describe, flow_analysis
    from .flow.presolve import flow_refutes_barb

    mode = "closed" if args.closed else "open"
    if args.corpus:
        if args.process is not None:
            print("flow: --corpus takes no process argument",
                  file=sys.stderr)
            return EXIT_UNKNOWN
        from .lint.corpus import corpus
        rows = [(name, flow_analysis(term, calculus=args.calculus,
                                     mode=mode))
                for name, term in corpus()]
        if args.format == "json":
            print(json.dumps({name: a.to_json() for name, a in rows},
                             indent=2))
        else:
            for name, a in rows:
                chans = a.channels()
                speak = sum(1 for c in chans.values() if c.may_broadcast)
                flag = " (incomplete)" if a.incomplete else ""
                print(f"{name}: {len(chans)} free channels, "
                      f"{speak} may-broadcast{flag}")
        return 0
    if args.process is None:
        print("flow: need a process term (or --corpus)", file=sys.stderr)
        return EXIT_UNKNOWN
    p = parse(args.process)
    if args.barb is not None:
        evidence = flow_refutes_barb(p, args.barb, calculus=args.calculus)
        if args.format == "json":
            payload = {"channel": args.barb,
                       "refuted": evidence is not None}
            if evidence is not None:
                payload["evidence"] = evidence.to_json()
            print(json.dumps(payload, indent=2))
        elif evidence is None:
            print(f"{args.barb}: may be reachable "
                  f"(the abstraction cannot refute it)")
        else:
            print(f"{args.barb}: proven inert — no reachable state may "
                  f"broadcast on it (0 states explored; may-broadcast = "
                  f"{{{', '.join(evidence.may_broadcast)}}})")
        return 1 if evidence is not None else 0
    analysis = flow_analysis(p, calculus=args.calculus, mode=mode)
    if args.format == "json":
        print(json.dumps(analysis.to_json(), indent=2))
    else:
        for line in describe(analysis):
            print(line)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from .store import VerdictStore, parse_requests, run_batch
    from .store.batch import RequestError

    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(args.requests, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            print(f"batch: cannot read {args.requests}: {exc}",
                  file=sys.stderr)
            return EXIT_UNKNOWN
    try:
        requests = parse_requests(lines)
    except RequestError as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    store = VerdictStore(args.store) if args.store else None
    try:
        outcome = run_batch(requests, store=store, workers=args.workers)
    finally:
        if store is not None:
            store.close()
    if args.format == "json":
        payload = {
            "results": [
                {"id": r.request.id, "truth": r.verdict.truth.value,
                 "reason": r.verdict.reason, "source": r.source}
                for r in outcome.results],
            "summary": {
                "requests": len(outcome.results),
                "store_hits": outcome.store_hits,
                "computed": outcome.computed,
                "deduped": outcome.deduped,
                "workers": outcome.workers,
                "degraded": outcome.degraded,
                "seconds": round(outcome.seconds, 6)},
            "store": outcome.store_stats,
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in outcome.results:
            print(f"{r.request.id or '-'}\t{r.verdict.truth.value}"
                  f"\t{r.source}")
        print(outcome.summary(), file=sys.stderr)
    return 0 if outcome.all_definite else EXIT_UNKNOWN


def _cmd_serve(args: argparse.Namespace) -> int:
    from .store import VerdictStore
    from .store.batch import serve as store_serve

    store = VerdictStore(args.store) if args.store else None
    try:
        served = store_serve(sys.stdin, sys.stdout, store=store)
    finally:
        if store is not None:
            store.close()
    print(f"serve: answered {served} requests", file=sys.stderr)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from .lts.graph import build_step_lts
    from .lts.minimize import minimal_to_dot, minimize, to_dot

    truncated = None
    try:
        lts, root = build_step_lts(_process(args.process),
                                   budget=_budget_from(args,
                                                       default_states=2_000),
                                   calculus=args.calculus)
    except BudgetExceeded as exc:
        lts, root = exc.partial
        truncated = exc.reason
    if args.minimize:
        print(minimal_to_dot(minimize(lts, root)))
    else:
        print(to_dot(lts, root))
    if truncated is not None:
        print(f"[budget] graph truncated ({truncated}) at {lts.n_states} "
              f"states", file=sys.stderr)
        return EXIT_UNKNOWN
    return 0


def _add_obs_args(parser: argparse.ArgumentParser, *,
                  suppress: bool = False) -> None:
    """The observability flags, accepted before *and* after the subcommand.

    On subparsers the defaults are ``SUPPRESS`` so an omitted flag does not
    overwrite a value already parsed at the top level.
    """
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", metavar="PATH",
        default=argparse.SUPPRESS if suppress else None,
        help="record tracing spans; write chrome://tracing JSON to PATH")
    group.add_argument(
        "--metrics", action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="print engine counters and the span tree to stderr at exit")
    group.add_argument(
        "--progress", action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="rate-limited progress heartbeats on stderr")


def _add_calculus_arg(parser: argparse.ArgumentParser) -> None:
    """The semantic-backend selector (steps/moves/run/eq/barb/graph/lint)."""
    parser.add_argument(
        "--calculus", metavar="SPEC", default=None,
        help="broadcast semantics: 'bpi' (default), 'lossy', or "
             "'wireless:a-b,b-c' (connectivity graph over cell names)")


def _add_budget_args(parser: argparse.ArgumentParser, *,
                     suppress: bool = False) -> None:
    """The resource-budget flags, accepted before *and* after the
    subcommand (same SUPPRESS discipline as the observability group)."""
    group = parser.add_argument_group(
        "budget",
        "resource caps for the bounded searches; when a decision command "
        "(eq, barb) trips its budget it prints UNKNOWN and exits with "
        f"status {EXIT_UNKNOWN}")
    group.add_argument(
        "--max-states", type=int, metavar="N",
        default=argparse.SUPPRESS if suppress else None,
        help="cap the number of explored states/pairs")
    group.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        default=argparse.SUPPRESS if suppress else None,
        help="wall-clock deadline for the whole command")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="bpi-calculus tools (Ene & Muntean 2001)",
        epilog=f"decision commands (eq, barb) exit 0 for a definite yes, "
               f"1 for a definite no and {EXIT_UNKNOWN} when the budget "
               f"tripped (UNKNOWN); batch exits 0 when every verdict is "
               f"definite and {EXIT_UNKNOWN} otherwise; serve always "
               f"exits 0 once stdin is drained (per-request errors are "
               f"reported in-band, see 'serve --help')")
    from . import __version__
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    _add_obs_args(parser)
    _add_budget_args(parser)
    obs_parent = argparse.ArgumentParser(add_help=False)
    _add_obs_args(obs_parent, suppress=True)
    _add_budget_args(obs_parent, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("steps", help="autonomous transitions",
                       parents=[obs_parent])
    s.add_argument("process")
    _add_calculus_arg(s)
    s.set_defaults(func=_cmd_steps)

    s = sub.add_parser("moves", help="all transitions incl. inputs",
                       parents=[obs_parent])
    s.add_argument("process")
    s.add_argument("--fresh", type=int, default=1)
    _add_calculus_arg(s)
    s.set_defaults(func=_cmd_moves)

    s = sub.add_parser("run", help="seeded execution", parents=[obs_parent])
    s.add_argument("process")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-steps", type=int, default=200)
    _add_calculus_arg(s)
    s.set_defaults(func=_cmd_run)

    s = sub.add_parser("eq", help="decide an equivalence (exit 0/1/2)",
                       parents=[obs_parent])
    s.add_argument("p")
    s.add_argument("q")
    s.add_argument("--relation", default="labelled",
                   choices=["barbed", "step", "labelled", "noisy",
                            "congruence", "similar"])
    s.add_argument("--weak", action="store_true")
    s.add_argument("--strategy", default=None,
                   choices=["onthefly", "global"],
                   help="checker core for barbed/step/labelled "
                        "(default: onthefly)")
    s.add_argument("--store", metavar="PATH", default=None,
                   help="persistent verdict cache (sqlite); serves cached "
                        "verdicts under the budget-aware reuse rule")
    _add_calculus_arg(s)
    s.set_defaults(func=_cmd_eq)

    s = sub.add_parser("barb", help="barb reachability (exit 0/1/2)",
                       parents=[obs_parent])
    s.add_argument("process")
    s.add_argument("channel")
    s.add_argument("--no-presolve", action="store_true",
                   help="skip the flow pre-solver; always explore")
    _add_calculus_arg(s)
    s.set_defaults(func=_cmd_barb)

    s = sub.add_parser("canon", help="canonical state form",
                       parents=[obs_parent])
    s.add_argument("process")
    s.set_defaults(func=_cmd_canon)

    s = sub.add_parser("graph", help="step-LTS as Graphviz DOT",
                       parents=[obs_parent])
    s.add_argument("process")
    s.add_argument("--minimize", action="store_true")
    _add_calculus_arg(s)
    s.set_defaults(func=_cmd_graph)

    s = sub.add_parser(
        "batch", help="answer many check requests (JSON-lines) through "
                      "the verdict store",
        parents=[obs_parent])
    s.add_argument("requests", metavar="FILE",
                   help="JSON-lines request file, or '-' for stdin")
    s.add_argument("--store", metavar="PATH", default=None,
                   help="persistent verdict cache (sqlite)")
    s.add_argument("--workers", type=int, default=0, metavar="N",
                   help="process-pool size for misses (0 = inline)")
    s.add_argument("--format", default="text", choices=["text", "json"])
    s.set_defaults(func=_cmd_batch)

    s = sub.add_parser(
        "serve", help="line service: JSON-lines requests on stdin, one "
                      "JSON verdict per line on stdout",
        description="Long-lived line service: one JSON-lines request in, "
                    "one JSON verdict line out (flushed) until stdin "
                    "closes.",
        epilog="exit status: always 0 once stdin is drained — malformed "
               "requests and UNKNOWN verdicts are reported in-band as "
               "JSON lines, never via the exit status (unlike batch, "
               f"which exits {EXIT_UNKNOWN})",
        parents=[obs_parent])
    s.add_argument("--store", metavar="PATH", default=None,
                   help="persistent verdict cache (sqlite)")
    s.set_defaults(func=_cmd_serve)

    s = sub.add_parser(
        "lint", help="static analysis (exit 0 clean / 1 findings / 2 "
                     "parse error)",
        parents=[obs_parent])
    s.add_argument("process", nargs="?",
                   help="term to analyse (omit with --corpus)")
    s.add_argument("--corpus", action="store_true",
                   help="lint every apps/examples corpus term instead")
    s.add_argument("--select", metavar="CODES",
                   help="only run these code prefixes (e.g. BP1,BP201)")
    s.add_argument("--ignore", metavar="CODES",
                   help="skip these code prefixes")
    s.add_argument("--format", default="text", choices=["text", "json"])
    _add_calculus_arg(s)
    s.set_defaults(func=_cmd_lint)

    s = sub.add_parser(
        "flow", help="channel-capability flow analysis (exit 0/1/2)",
        description="Per-channel may-broadcast / may-listen / may-extrude "
                    "/ may-carry capability sets from the 0-CFA-style "
                    "abstraction; with --barb CHAN, the static pre-solver "
                    "verdict on that channel.",
        epilog="exit status: 0 = analysis printed (or the barb may be "
               "reachable), 1 = --barb channel proven inert, "
               f"{EXIT_UNKNOWN} = parse failure",
        parents=[obs_parent])
    s.add_argument("process", nargs="?",
                   help="term to analyse (omit with --corpus)")
    s.add_argument("--corpus", action="store_true",
                   help="summarise every apps/examples corpus term instead")
    s.add_argument("--closed", action="store_true",
                   help="closed-system reading (no environment); the "
                        "pre-solver's mode")
    s.add_argument("--barb", metavar="CHAN", default=None,
                   help="ask the pre-solver about a barb on CHAN "
                        "(exit 1 = proven inert)")
    s.add_argument("--format", default="text", choices=["text", "json"])
    _add_calculus_arg(s)
    s.set_defaults(func=_cmd_flow)

    args = parser.parse_args(argv)

    def dispatch() -> int:
        # Each command builds one explicit Budget from the flags and runs
        # exactly one governed check against it, so the flags bound the
        # whole command; an ambient govern() here would be shadowed by
        # those explicit budgets (explicit beats ambient) and only start
        # a second, unconsulted deadline clock.
        try:
            return args.func(args)
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            excerpt = exc.source_context()
            if excerpt:
                print("\n".join("  " + ln for ln in excerpt.splitlines()),
                      file=sys.stderr)
            return EXIT_UNKNOWN
        except NotAProcess as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNKNOWN
        except ValueError as exc:
            if "backend" not in str(exc) and "calculus" not in str(exc):
                raise
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNKNOWN

    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    want_progress = getattr(args, "progress", False)
    if not (trace_path or want_metrics or want_progress):
        return dispatch()

    from . import obs
    obs.reset()  # one CLI invocation == one trace
    obs.enable(progress=want_progress)
    try:
        return dispatch()
    finally:
        obs.disable()
        if trace_path:
            obs.export_chrome(trace_path)
            print(f"[obs] trace written to {trace_path}", file=sys.stderr)
        if want_metrics:
            print(obs.summary_tree(), file=sys.stderr)
            print(obs.format_metrics(), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
