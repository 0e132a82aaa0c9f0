"""Batch analysis service: many check requests through one store.

This is the "heavy traffic" front end from the roadmap: accept a stream
of equivalence-check requests (JSON-lines), dedup them against each
other and against a :class:`~repro.store.db.VerdictStore`, schedule the
misses across a ``concurrent.futures`` process pool, and stream
progress through the ``obs/progress`` hooks.  The CLI ``repro batch`` /
``repro serve`` commands and ``repro.api.check(store=...)`` are thin
clients of the same core.

Pipeline of :func:`run_batch`:

1. **parse** — each JSON-lines record becomes a :class:`CheckRequest`;
2. **dedup** — requests with the same content address (canonical pair
   digest + equivalence + strategy + cap) collapse to one task;
3. **store lookup** — tasks answered by the budget-aware reuse rule
   are hits and never scheduled;
4. **dispatch** — remaining tasks run on a worker pool: workers receive
   *codec-encoded* pairs (terms re-intern on arrival in the child's own
   intern table), run the on-the-fly checker under the per-task budget
   and ship a portable verdict back;
5. **record** — computed verdicts are written back to the store.

Worker contract: workers are **verdict-level** in the PR-4 two-layer
sense — :func:`evaluate_request` is annotated ``-> Verdict`` and a
``BudgetExceeded`` can never cross the pool boundary (it would poison
the futures protocol and take the whole batch down with it);
``tools/check_contracts.py`` enforces this shape.

Degradation story: if the process pool cannot be created or a worker
dies (a sandbox without ``fork``, an OOM-killed child), the affected
tasks re-run inline in the coordinator — slower, never wrong, and the
outcome records ``degraded=True`` so operators can see it happened.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Iterable, TextIO

from ..api import RELATIONS, STRATEGY_RELATIONS
from ..core.parser import parse as _parse
from ..core.syntax import Process
from ..engine.budget import Budget, BudgetExceeded
from ..engine.verdict import Truth, Verdict
from ..equiv.onthefly import STRATEGIES, PartialProduct
from ..obs import metrics as _metrics, progress as _progress, tracing as _tracing
from ..obs.state import STATE as _OBS
from .codec import decode, encode, pair_key
from .db import VerdictStore, calculus_key, equivalence_name, request_cap

__all__ = ["CheckRequest", "BatchResult", "BatchOutcome",
           "parse_requests", "run_batch", "evaluate_request", "serve"]


class RequestError(ValueError):
    """A JSON-lines record does not spell a valid check request."""


@dataclass(frozen=True)
class CheckRequest:
    """One equivalence-check request, as accepted by the batch front end.

    ``max_states``/``deadline`` bound the *per-task* search; both
    ``None`` leaves the checker's own default budget in charge.
    """

    p: Process
    q: Process
    relation: str = "labelled"
    weak: bool = False
    strategy: str | None = None
    max_states: int | None = None
    deadline: float | None = None
    calculus: str | None = None
    id: str | None = None

    def budget(self) -> Budget | None:
        if self.max_states is None and self.deadline is None:
            return None
        return Budget(max_states=self.max_states, deadline=self.deadline)

    def cap(self) -> int | None:
        return request_cap(self.budget())

    def task_key(self) -> tuple[str, str, str, int | None]:
        """The dedup identity: content-addressed pair + check parameters.

        The pair key already bakes in the canonical backend key, so two
        requests under different calculi (or differently-spelled
        equivalent wireless topologies) never collapse to one task."""
        return (pair_key(self.p, self.q, calculus=calculus_key(self.calculus)),
                equivalence_name(self.relation, self.weak),
                self.strategy or "default",
                self.cap())


@dataclass(frozen=True)
class BatchResult:
    """One request's outcome.  ``source`` says where the verdict came
    from: ``"store"`` (reuse-rule hit), ``"computed"`` (fresh search) or
    ``"dedup"`` (another request in the same batch computed it)."""

    request: CheckRequest
    verdict: Verdict
    source: str


@dataclass
class BatchOutcome:
    """Everything :func:`run_batch` learned, plus service counters."""

    results: list[BatchResult]
    store_hits: int = 0
    computed: int = 0
    deduped: int = 0
    workers: int = 0
    degraded: bool = False
    seconds: float = 0.0
    store_stats: dict[str, Any] = field(default_factory=dict)

    @property
    def all_definite(self) -> bool:
        return all(r.verdict.is_definite for r in self.results)

    def summary(self) -> str:
        n = len(self.results)
        unknown = sum(r.verdict.is_unknown for r in self.results)
        return (f"{n} requests: {self.store_hits} store hits, "
                f"{self.computed} computed, {self.deduped} deduped, "
                f"{unknown} unknown ({self.seconds:.2f}s, "
                f"workers={self.workers}"
                + (", DEGRADED" if self.degraded else "") + ")")


def parse_requests(lines: "Iterable[str]") -> list[CheckRequest]:
    """Parse JSON-lines check requests (blank lines and ``#`` comments
    are skipped).  Raises :class:`RequestError` with the line number on
    the first malformed record."""
    out: list[CheckRequest] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise RequestError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise RequestError(f"line {lineno}: expected an object, "
                               f"got {type(rec).__name__}")
        try:
            out.append(request_from_record(rec))
        except (RequestError, ValueError, TypeError) as exc:
            raise RequestError(f"line {lineno}: {exc}") from exc
    return out


def request_from_record(rec: dict[str, Any]) -> CheckRequest:
    """Build a :class:`CheckRequest` from one decoded JSON object."""
    unknown = set(rec) - {"p", "q", "relation", "weak", "strategy",
                          "max_states", "deadline", "calculus", "id"}
    if unknown:
        raise RequestError(f"unknown fields {sorted(unknown)}")
    for side in ("p", "q"):
        if not isinstance(rec.get(side), str):
            raise RequestError(f"field {side!r} must be a process string")
    relation = rec.get("relation", "labelled")
    if relation not in RELATIONS:
        raise RequestError(f"unknown relation {relation!r}; "
                           f"pick one of {RELATIONS}")
    weak = rec.get("weak", False)
    if not isinstance(weak, bool):
        raise RequestError("weak must be a JSON boolean")
    strategy = rec.get("strategy")
    if strategy is not None:
        if strategy not in STRATEGIES:
            raise RequestError(f"unknown strategy {strategy!r}; "
                               f"pick one of {STRATEGIES}")
        if relation not in STRATEGY_RELATIONS:
            raise RequestError(f"strategy applies to {STRATEGY_RELATIONS}, "
                               f"not {relation!r}")
    # bool is an int subclass: `true` must not pass as a cap of 1.
    max_states = rec.get("max_states")
    if max_states is not None and (isinstance(max_states, bool)
                                   or not isinstance(max_states, int)
                                   or max_states < 1):
        raise RequestError("max_states must be a positive integer")
    deadline = rec.get("deadline")
    if deadline is not None and (isinstance(deadline, bool)
                                 or not isinstance(deadline, (int, float))):
        raise RequestError("deadline must be a number of seconds")
    calculus = rec.get("calculus")
    if calculus is not None:
        if not isinstance(calculus, str):
            raise RequestError("calculus must be a backend spec string")
        from ..calculi import registry as _registry
        try:
            _registry.resolve(calculus)
        except ValueError as exc:
            raise RequestError(str(exc)) from None
    return CheckRequest(
        p=_parse(rec["p"]), q=_parse(rec["q"]), relation=relation,
        weak=weak, strategy=strategy,
        max_states=max_states, deadline=deadline, calculus=calculus,
        id=str(rec["id"]) if rec.get("id") is not None else None)


# -- the worker side ---------------------------------------------------------

def evaluate_request(p: Process, q: Process, *, relation: str = "labelled",
                     weak: bool = False, strategy: str | None = None,
                     max_states: int | None = None,
                     deadline: float | None = None,
                     calculus: str | None = None) -> Verdict:
    """Run one check under its per-task budget.  **Verdict-level**: this
    is the function the pool executes (via :func:`_worker_check`), and a
    tripped budget must come back as an UNKNOWN verdict, never as a
    ``BudgetExceeded`` leaking into the futures machinery."""
    from ..api import check
    budget = None
    if max_states is not None or deadline is not None:
        budget = Budget(max_states=max_states, deadline=deadline)
    try:
        return check(p, q, relation=relation, weak=weak, budget=budget,
                     strategy=strategy, calculus=calculus)
    except BudgetExceeded as exc:
        # check() already degrades trips to UNKNOWN; this is the
        # worker-boundary backstop should any future checker forget.
        return Verdict.from_exceeded(exc)


def _verdict_to_wire(v: Verdict) -> dict[str, Any]:
    """A picklable/JSON-able image of a verdict (terms stripped: the
    coordinator only renders counts, never re-walks worker-side terms)."""
    wire: dict[str, Any] = {
        "truth": v.truth.value,
        "reason": v.reason,
        "stats": {k: val for k, val in v.stats.items()
                  if isinstance(val, (str, int, float, bool)) or val is None},
    }
    if isinstance(v.evidence, PartialProduct):
        wire["partial"] = {"pairs_expanded": v.evidence.pairs_expanded,
                           "frontier": v.evidence.frontier,
                           "max_depth": v.evidence.max_depth}
    return wire


def _wire_to_verdict(wire: dict[str, Any]) -> Verdict:
    truth = Truth(wire["truth"])
    evidence = None
    if wire.get("partial"):
        d = wire["partial"]
        evidence = PartialProduct(pairs_expanded=d["pairs_expanded"],
                                  frontier=d["frontier"],
                                  max_depth=d["max_depth"], relation=())
    if truth is Truth.UNKNOWN:
        return Verdict.unknown(wire.get("reason") or "max-states",
                               stats=wire.get("stats"), evidence=evidence)
    return Verdict(truth, stats=wire.get("stats"), evidence=evidence)


def _worker_check(payload: tuple) -> dict[str, Any]:
    """Pool entry point: decode (= re-intern in the child), evaluate,
    wire the verdict back.  Must stay module-level and take one
    picklable argument."""
    (p_bytes, q_bytes, relation, weak, strategy,
     max_states, deadline, calculus) = payload
    p, q = decode(p_bytes), decode(q_bytes)
    verdict = evaluate_request(p, q, relation=relation, weak=weak,
                               strategy=strategy, max_states=max_states,
                               deadline=deadline, calculus=calculus)
    return _verdict_to_wire(verdict)


def _task_payload(req: CheckRequest) -> tuple:
    return (encode(req.p), encode(req.q), req.relation, req.weak,
            req.strategy, req.max_states, req.deadline, req.calculus)


# -- the coordinator ---------------------------------------------------------

def run_batch(requests: "Iterable[CheckRequest]", *,
              store: "VerdictStore | None" = None,
              workers: int = 0) -> BatchOutcome:
    """Answer every request; see the module docstring for the pipeline.

    ``workers=0`` evaluates misses inline (no pool) — the degraded mode
    and the deterministic default for tests; ``workers=N`` dispatches
    across an N-process pool.  Results come back in request order.
    """
    import time as _time

    reqs = list(requests)
    t0 = _time.perf_counter()
    outcome = BatchOutcome(results=[], workers=max(0, workers))
    # task_key -> (verdict, source) once answered; -> None while pending.
    answered: dict[tuple, tuple[Verdict, str]] = {}
    order: list[tuple] = [req.task_key() for req in reqs]
    pending: dict[tuple, CheckRequest] = {}

    with _tracing.span("batch.run", requests=len(reqs)):
        for req, key in zip(reqs, order):
            if key in answered or key in pending:
                continue
            cached = None
            if store is not None:
                cached = store.lookup(req.p, req.q, relation=req.relation,
                                      weak=req.weak, strategy=req.strategy,
                                      cap=req.cap(), calculus=req.calculus)
            if cached is not None:
                answered[key] = (cached, "store")
                outcome.store_hits += 1
            else:
                pending[key] = req

        done = 0
        total = len(pending)

        def note_done(req: CheckRequest, key: tuple,
                      verdict: Verdict) -> None:
            nonlocal done
            done += 1
            answered[key] = (verdict, "computed")
            outcome.computed += 1
            if store is not None:
                store.record(req.p, req.q, verdict, relation=req.relation,
                             weak=req.weak, strategy=req.strategy,
                             cap=req.cap(), calculus=req.calculus)
            if _OBS.enabled:
                _metrics.inc("batch.dispatch")
                _progress.report("batch.dispatch", done=done, total=total,
                                 hits=outcome.store_hits,
                                 workers=outcome.workers)

        if pending and outcome.workers >= 2:
            _run_pool(pending, outcome, note_done)
        for key, req in list(pending.items()):
            if key not in answered:  # workers==0/1 path or pool fallout
                note_done(req, key, evaluate_request(
                    req.p, req.q, relation=req.relation, weak=req.weak,
                    strategy=req.strategy, max_states=req.max_states,
                    deadline=req.deadline, calculus=req.calculus))

        seen_once: set[tuple] = set()
        for req, key in zip(reqs, order):
            verdict, source = answered[key]
            if key in seen_once and source != "store":
                source = "dedup"
            elif key in seen_once:
                pass  # every duplicate of a store hit is also a store hit
            seen_once.add(key)
            if source == "dedup":
                outcome.deduped += 1
            outcome.results.append(BatchResult(
                request=req, verdict=verdict, source=source))

    outcome.seconds = _time.perf_counter() - t0
    if store is not None:
        outcome.store_stats = store.stats()
    return outcome


def _run_pool(pending: dict[tuple, "CheckRequest"], outcome: BatchOutcome,
              note_done) -> None:
    """Dispatch *pending* across a process pool, degrading inline.

    Tasks whose worker dies (``BrokenProcessPool``) or whose result
    cannot cross the boundary fall back to the coordinator loop in
    :func:`run_batch` — they are simply left unanswered here.
    """
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:  # pragma: no cover - stdlib always has it
        outcome.degraded = True
        return
    try:
        with ProcessPoolExecutor(max_workers=outcome.workers) as pool:
            futures = {key: pool.submit(_worker_check, _task_payload(req))
                       for key, req in pending.items()}
            for key, fut in futures.items():
                try:
                    wire = fut.result()
                except (BrokenProcessPool, OSError, RuntimeError):
                    outcome.degraded = True
                    continue  # re-run inline in the coordinator
                note_done(pending[key], key, _wire_to_verdict(wire))
    except (OSError, PermissionError, ValueError):
        # Pool creation itself failed (no fork, rlimit...): run inline.
        outcome.degraded = True


# -- the line-oriented service front end -------------------------------------

def serve(in_stream: TextIO, out_stream: TextIO, *,
          store: "VerdictStore | None" = None) -> int:
    """``repro serve``: answer JSON-lines requests from *in_stream* one
    by one, emitting one JSON result line per request (flushed, so
    pipelines see answers as they happen).  Malformed lines, and
    requests whose evaluation raises, produce an ``{"error": ...}`` line
    instead of killing the service.  Returns the number of requests
    answered with a verdict."""
    import time as _time

    served = 0
    for lineno, line in enumerate(in_stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise RequestError("expected a JSON object")
            req = request_from_record(rec)
        except (ValueError, RequestError) as exc:
            print(json.dumps({"line": lineno, "error": str(exc)}),
                  file=out_stream, flush=True)
            continue
        t0 = _time.perf_counter()
        try:
            if store is not None:
                verdict = store.check(req.p, req.q, relation=req.relation,
                                      weak=req.weak, strategy=req.strategy,
                                      budget=req.budget(),
                                      calculus=req.calculus)
                hit = verdict.stats.get("store") == "hit"
            else:
                verdict = evaluate_request(
                    req.p, req.q, relation=req.relation, weak=req.weak,
                    strategy=req.strategy, max_states=req.max_states,
                    deadline=req.deadline, calculus=req.calculus)
                hit = False
        except Exception as exc:
            # Budget trips are already UNKNOWN verdicts; anything else
            # the engine raises on this request (an open term, a
            # recursion too deep) fails this request alone.
            import traceback
            traceback.print_exc(limit=-3, file=sys.stderr)
            print(json.dumps({"line": lineno, "id": req.id,
                              "error": f"{type(exc).__name__}: {exc}"}),
                  file=out_stream, flush=True)
            continue
        served += 1
        out = {"id": req.id, "truth": verdict.truth.value,
               "reason": verdict.reason,
               "source": "store" if hit else "computed",
               "seconds": round(_time.perf_counter() - t0, 6)}
        print(json.dumps(out), file=out_stream, flush=True)
        if _OBS.enabled:
            _metrics.inc("batch.dispatch")
            _progress.report("batch.dispatch", done=served, total=None,
                             hits=int(hit), workers=0)
    return served
