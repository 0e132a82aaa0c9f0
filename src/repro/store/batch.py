"""Batch analysis service: JSON-lines check requests through one store.

One request path serves both front ends.  :func:`answer_line` takes one
JSON-lines record and a store and returns one JSON-able answer: a
verdict (``id``, ``truth``, ``reason``, ``source``, ``seconds``) or an
``error`` carrying the input ``line`` number.  It parses the record
into a :class:`CheckRequest` and runs :func:`evaluate_request`, which is
:func:`repro.api.check` with the request's budget and the store, so
:meth:`~repro.store.db.VerdictStore.check` is the only lookup → compute
→ record sequence.

* ``repro serve`` (:func:`serve`) maps it over stdin, one flushed output
  line per request, with or without a store;
* ``repro batch`` (:func:`answer_lines`) maps it over a file, always
  through a store file (the caller's, or a temporary one), so a request
  repeated in the file is a store hit under the budget-aware reuse rule.
  ``workers >= 2`` fans the lines out over a ``spawn`` process pool;
  each worker opens its own connection to the same file (WAL mode and
  the atomic upsert make concurrent writers safe), receives raw lines
  and returns answer dicts.  Two copies of one request running at once
  in two workers may both compute; they reach the same truth and the
  upsert keeps the better row.

Worker contract: :func:`evaluate_request` is **verdict-level** in the
engine's two-layer sense (``docs/api.md``) — it is annotated
``-> Verdict`` and a ``BudgetExceeded`` can never cross the pool
boundary; ``tools/check_contracts.py`` enforces this shape.

Degradation story: if the process pool cannot be created or a worker
dies (a sandbox without process support, an OOM-killed child), the
unanswered lines run inline in the coordinator — slower, never wrong,
and :func:`answer_lines` reports ``degraded=True`` so operators can see
it happened.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, TextIO

from ..api import RELATIONS, STRATEGY_RELATIONS, check
from ..core.parser import parse as _parse
from ..core.syntax import Process
from ..engine.budget import Budget, BudgetExceeded
from ..engine.verdict import Verdict
from ..equiv.onthefly import STRATEGIES
from ..obs import metrics as _metrics, progress as _progress, tracing as _tracing
from ..obs.state import STATE as _OBS
from .db import VerdictStore

__all__ = ["CheckRequest", "answer_line", "answer_lines",
           "evaluate_request", "request_from_record", "serve"]


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
    # json.loads accepts NaN and ±Infinity; a NaN deadline never trips.
    deadline = rec.get("deadline")
    if deadline is not None and (isinstance(deadline, bool)
                                 or not isinstance(deadline, (int, float))
                                 or not math.isfinite(deadline)):
        raise RequestError("deadline must be a finite number of seconds")
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


def evaluate_request(req: CheckRequest,
                     store: "VerdictStore | None" = None) -> Verdict:
    """Answer one request under its per-task budget, through *store*
    when given.  **Verdict-level**: a tripped budget must come back as
    an UNKNOWN verdict, never as a ``BudgetExceeded`` leaking into a
    pool worker's future."""
    try:
        return check(req.p, req.q, relation=req.relation, weak=req.weak,
                     budget=req.budget(), strategy=req.strategy,
                     store=store, calculus=req.calculus)
    except BudgetExceeded as exc:
        # check() already degrades trips to UNKNOWN; this is the
        # worker-boundary backstop should any future checker forget.
        return Verdict.from_exceeded(exc)


def answer_line(lineno: int, line: str,
                store: "VerdictStore | None") -> dict[str, Any]:
    """The answer to request *line* (input line number *lineno*): a
    verdict dict, or an ``error`` dict when the line does not parse into
    a request or its evaluation raises."""
    try:
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise RequestError("expected a JSON object")
        req = request_from_record(rec)
    except ValueError as exc:
        return {"line": lineno, "error": str(exc)}
    t0 = time.perf_counter()
    try:
        verdict = evaluate_request(req, store)
    except Exception as exc:
        # Budget trips are already UNKNOWN verdicts; anything else
        # the engine raises on this request (an open term, a
        # recursion too deep) fails this request alone.
        import traceback
        traceback.print_exc(limit=-3, file=sys.stderr)
        return {"line": lineno, "id": req.id,
                "error": f"{type(exc).__name__}: {exc}"}
    return {"id": req.id, "truth": verdict.truth.value,
            "reason": verdict.reason,
            "source": ("store" if verdict.stats.get("store") == "hit"
                       else "computed"),
            "seconds": round(time.perf_counter() - t0, 6)}


def _request_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of each request line: blank lines and
    ``#`` comments are skipped."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _note(answer: dict[str, Any], done: int, total: int | None,
          workers: int) -> None:
    """Count and report one answer that ran a computation."""
    if _OBS.enabled and answer.get("source") == "computed":
        _metrics.inc("batch.dispatch")
        _progress.report("batch.dispatch", done=done, total=total,
                         workers=workers)


# -- the line-oriented service front end -------------------------------------

def serve(in_stream: TextIO, out_stream: TextIO, *,
          store: "VerdictStore | None" = None) -> int:
    """``repro serve``: answer JSON-lines requests from *in_stream* one
    by one, emitting one JSON result line per request (flushed, so
    pipelines see answers as they happen).  Malformed lines, and
    requests whose evaluation raises, produce an ``{"error": ...}`` line
    instead of killing the service.  Returns the number of requests
    answered with a verdict."""
    served = 0
    for lineno, line in _request_lines(in_stream):
        answer = answer_line(lineno, line, store)
        print(json.dumps(answer), file=out_stream, flush=True)
        if "error" not in answer:
            served += 1
            _note(answer, served, None, 0)
    return served


# -- the file front end ------------------------------------------------------

def answer_lines(lines: Iterable[str], path: str, *,
                 workers: int = 0) -> tuple[list[dict[str, Any]], bool]:
    """``repro batch``: answer every request line through the store file
    at *path*.  Returns the answers in line order and whether the run
    was degraded (``workers >= 2`` asked for a pool that could not start
    or lost a worker; those lines were answered inline)."""
    todo = list(_request_lines(lines))
    answers: dict[int, dict[str, Any]] = {}
    degraded = False
    with VerdictStore(path) as store, \
            _tracing.span("batch.run", requests=len(todo)):
        if todo and workers >= 2:
            degraded = _run_pool(todo, path, workers, answers)
        for lineno, line in todo:
            if lineno not in answers:
                answers[lineno] = answer_line(lineno, line, store)
                _note(answers[lineno], len(answers), len(todo), 0)
    return [answers[lineno] for lineno, _ in todo], degraded


def _answer_in_worker(path: str, lineno: int, line: str) -> dict[str, Any]:
    """Pool entry point: one request line against the shared store file.
    Must stay module-level: the ``spawn`` pool pickles it by name."""
    with VerdictStore(path) as store:
        return answer_line(lineno, line, store)


def _run_pool(todo: list[tuple[int, str]], path: str, workers: int,
              answers: dict[int, dict[str, Any]]) -> bool:
    """Answer *todo* over a *workers*-process pool into *answers*.
    Returns True when the pool could not start or a line's worker
    failed; such lines are left unanswered for the inline loop."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    degraded = False
    try:
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [(lineno, pool.submit(_answer_in_worker, path,
                                            lineno, line))
                       for lineno, line in todo]
            for lineno, fut in futures:
                try:
                    answers[lineno] = fut.result()
                except BrokenProcessPool:
                    # A worker died: its line, and every line still
                    # queued, is answered inline.
                    degraded = True
                    continue
                _note(answers[lineno], len(answers), len(todo), workers)
    except OSError:
        # The pool itself could not start (no processes, rlimit...).
        return True
    return degraded
