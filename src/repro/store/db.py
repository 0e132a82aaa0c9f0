"""Persistent content-addressed verdict store (sqlite).

Every verdict in this codebase is a pure function of the canonical term
pair, the equivalence being decided and the resource floor the search
ran under — so verdicts are durable: computed once, they answer every
later request that the budget-aware reuse rule covers.

Reuse rule (the PR-4 two-layer contract applied across process
lifetimes):

* a **definite** TRUE/FALSE recorded with floor ``B`` answers any
  request with budget ``>= B``.  The floor recorded is the number of
  units the *completing* meter actually charged — the search finished
  at that cost, and a completed search is budget-independent above it
  (the budget-monotonicity property), so this is the tightest sound
  floor;
* a cached **UNKNOWN** recorded at cap ``B`` only short-circuits
  requests with budget ``<= B`` — a larger budget might complete, so it
  must recompute.  Only ``max-states`` trips are cached: deadline and
  cancellation trips are wall-clock/operator artefacts, not
  reproducible resource floors.

Hard invariant: a stale, corrupt or version-skewed store can only cause
*recomputation*, never a wrong verdict.  Every row carries a
``schema_version`` and a checksum over its semantic fields; any
mismatch — and any ``sqlite3`` error at all — degrades the lookup to a
miss.  The Hypothesis property in ``tests/test_store.py`` pins
store-mediated verdicts to direct verdicts at equal budgets.

Durability: a row is a cache entry, so a store file journals in WAL
mode with ``synchronous=NORMAL``.  A commit appends to the ``-wal``
file instead of creating, fsyncing and deleting a rollback journal; a
committed row survives an application crash, and a power loss can roll
back the last commits but not corrupt the file — a lost row is a
recomputation.  Each :meth:`VerdictStore.record` is one atomic upsert,
committed at once, so every connection sharing the file sees the row
and two writers cannot replace a better row with a worse one.  A file
whose journal cannot be switched keeps its mode and keeps serving.

Observability: lookups run inside a ``store.lookup`` span and bump the
``store.hit`` / ``store.miss`` / ``store.record`` counters (see
``docs/observability.md``).
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from pathlib import Path
from typing import Any

from ..core.syntax import Process
from ..engine.budget import Budget, BudgetExceeded, Meter
from ..engine.verdict import Truth, Verdict
from ..equiv.game import DEFAULT_MAX_PAIRS
from ..equiv.onthefly import PartialProduct
from ..obs import metrics as _metrics, tracing as _tracing
from ..obs.state import STATE as _OBS
from .codec import pair_key

__all__ = ["SCHEMA_VERSION", "VerdictStore", "calculus_key",
           "equivalence_name", "request_cap"]

#: Bumped whenever the row semantics change; rows written under any
#: other version are invisible (treated as misses), never reinterpreted.
#: v2: verdict identity includes the calculus backend key (rows written
#: by v1 carry no backend and miss cleanly).
#: v3: canonical forms number binders per component and name hoisted
#: restrictions ``_h<i>``, and pair keys hash the states' fingerprints
#: instead of their encodings, so every key changed.
SCHEMA_VERSION = 3

_TABLE = """\
CREATE TABLE IF NOT EXISTS verdicts (
    pair_key        TEXT    NOT NULL,
    equivalence     TEXT    NOT NULL,
    strategy        TEXT    NOT NULL,
    calculus        TEXT    NOT NULL DEFAULT 'bpi',
    truth           TEXT    NOT NULL,
    reason          TEXT,
    budget_floor    INTEGER NOT NULL,
    evidence        TEXT,
    stats           TEXT,
    schema_version  INTEGER NOT NULL,
    checksum        TEXT    NOT NULL,
    created_at      REAL    NOT NULL,
    PRIMARY KEY (pair_key, equivalence, strategy, calculus)
)
"""

# One atomic statement per record: the conflict arm replaces the row only
# when the reuse rule calls the new one strictly better (``improves``, the
# connection's binding of :func:`_improves`) or the row was written under
# another schema version, which no lookup of this version would serve.
_UPSERT = """\
INSERT INTO verdicts (pair_key, equivalence, strategy, calculus, truth,
                      reason, budget_floor, evidence, stats, schema_version,
                      checksum, created_at)
VALUES (?,?,?,?,?,?,?,?,?,?,?,?)
ON CONFLICT (pair_key, equivalence, strategy, calculus) DO UPDATE SET
    truth=excluded.truth, reason=excluded.reason,
    budget_floor=excluded.budget_floor, evidence=excluded.evidence,
    stats=excluded.stats, schema_version=excluded.schema_version,
    checksum=excluded.checksum, created_at=excluded.created_at
WHERE verdicts.schema_version != excluded.schema_version
   OR improves(verdicts.truth, verdicts.budget_floor,
               excluded.truth, excluded.budget_floor)
"""

def calculus_key(calculus: "str | None") -> str:
    """The backend identity key a request's *calculus* spec denotes.

    ``None`` means the default backend.  Resolution goes through the
    registry so equivalent spellings (``"wireless:b-a"`` vs
    ``"wireless:a-b"``) and topology digests canonicalise; an unknown
    spec raises the registry's ``ValueError`` (the same failure the
    direct check path would hit).
    """
    if calculus is None:
        return "bpi"
    key = getattr(calculus, "key", None)
    if callable(key):
        return key()
    from ..calculi import registry as _registry
    return _registry.resolve(calculus).key()


def equivalence_name(relation: str, weak: bool) -> str:
    """The store's equivalence key, e.g. ``"labelled"`` / ``"weak step"``."""
    return f"weak {relation}" if weak else relation


def request_cap(budget: "Budget | Meter | None") -> int | None:
    """The max-states floor a request effectively runs under.

    ``None`` means genuinely unlimited.  A shared :class:`Meter` offers
    only its *remaining* pool; a missing budget resolves to the game
    checkers' default pair pool.  The latter is an approximation (each
    checker family has its own default cap): recorded floors are always
    clamped to the *actual* tripping limit, so the approximation can
    only change which rows a ``budget=None`` request reuses, never make
    a served verdict wrong.
    """
    if isinstance(budget, Meter):
        return budget.remaining_states()
    if isinstance(budget, Budget):
        return budget.max_states
    return DEFAULT_MAX_PAIRS


def _row_checksum(pair_key_: str, equivalence: str, strategy: str,
                  calculus: str, truth: str, reason: str | None,
                  budget_floor: int, evidence: str | None,
                  schema_version: int) -> str:
    payload = json.dumps(
        [pair_key_, equivalence, strategy, calculus, truth, reason,
         budget_floor, evidence, schema_version],
        separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _jsonable(mapping: dict[str, Any]) -> dict[str, Any]:
    """The JSON-representable subset of *mapping* (stats dicts may grow
    arbitrary fields; anything unserialisable is dropped, not fatal)."""
    out: dict[str, Any] = {}
    for k, v in mapping.items():
        if isinstance(v, (str, int, float, bool)) or v is None:
            out[k] = v
    return out


class VerdictStore:
    """A content-addressed verdict cache backed by one sqlite file.

    Open with a filesystem path (``":memory:"`` works for tests).  All
    public methods are total: storage-layer failures surface as misses
    and dropped records, counted in :meth:`counters`, never as wrong
    answers or exceptions.
    """

    def __init__(self, path: "str | Path"):
        self.path = str(path)
        self._conn: sqlite3.Connection | None = None
        self._last_key: tuple[Process, Process, str, str] | None = None
        self.counters: dict[str, int] = {
            "lookups": 0, "hits": 0, "misses": 0, "records": 0,
            "hits_definite": 0, "hits_unknown": 0,
            "hits_at_larger_budget": 0, "hits_at_smaller_budget": 0,
            "hits_at_equal_budget": 0,
            "integrity_failures": 0, "errors": 0,
        }
        try:
            self._conn = sqlite3.connect(self.path)
            self._conn.create_function("improves", 4, _improves,
                                       deterministic=True)
            self._conn.execute(_TABLE)
            self._conn.commit()
        except sqlite3.Error:
            # A store we cannot open is a store of misses.
            self.counters["errors"] += 1
            self._conn = None
        if self._conn is not None:
            # A v1 file lacks the calculus column; add it so v2 queries
            # run (its old rows still miss via the schema_version gate).
            try:
                self._conn.execute(
                    "ALTER TABLE verdicts ADD COLUMN calculus TEXT "
                    "NOT NULL DEFAULT 'bpi'")
                self._conn.commit()
            except sqlite3.Error:
                pass  # column already present (the common case)
            # A row is a cache entry (see "Durability" above): journal in
            # WAL, and lower ``synchronous`` only once the journal is WAL,
            # since under a rollback journal NORMAL risks the file itself.
            # ``:memory:`` answers "memory" and stays as it is; a file that
            # cannot switch keeps its journal mode and keeps serving.
            try:
                if self._conn.execute(
                        "PRAGMA journal_mode=WAL").fetchone() == ("wal",):
                    self._conn.execute("PRAGMA synchronous=NORMAL")
            except sqlite3.Error:
                self.counters["errors"] += 1

    # -- context management ----------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        if self._conn is None:
            return 0
        try:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM verdicts").fetchone()
            return int(row[0])
        except sqlite3.Error:
            return 0

    # -- the reuse rule ---------------------------------------------------
    def lookup(self, p: Process, q: Process, *, relation: str = "labelled",
               weak: bool = False, strategy: str | None = None,
               cap: "int | None | Budget | Meter" = None,
               calculus: "str | None" = None) -> Verdict | None:
        """The cached verdict serving this request, or ``None`` (miss).

        *cap* is the request's max-states floor (an int, ``None`` for
        unlimited, or a Budget/Meter to derive it from).  *calculus*
        scopes the request to one semantic backend (default ``"bpi"``).
        """
        if isinstance(cap, (Budget, Meter)):
            cap = request_cap(cap)
        ckey = calculus_key(calculus)
        key = self._pair_key(p, q, ckey)
        equivalence = equivalence_name(relation, weak)
        strat = strategy or "default"
        with _tracing.span("store.lookup", equivalence=equivalence) as sp:
            self.counters["lookups"] += 1
            if _OBS.enabled:
                _metrics.inc("store.lookup")
            verdict = self._lookup_row(key, equivalence, strat, ckey, cap)
            hit = verdict is not None
            self.counters["hits" if hit else "misses"] += 1
            if _OBS.enabled:
                _metrics.inc("store.hit" if hit else "store.miss")
            sp.set(hit=hit)
        return verdict

    def _pair_key(self, p: Process, q: Process, ckey: str) -> str:
        """:func:`~repro.store.codec.pair_key`, remembered for the last
        pair asked: a :meth:`check` miss records under the key its
        lookup computed instead of encoding and hashing the pair again."""
        last = self._last_key
        if last is not None and last[0] is p and last[1] is q \
                and last[2] == ckey:
            return last[3]
        key = pair_key(p, q, calculus=ckey)
        self._last_key = (p, q, ckey, key)
        return key

    def _lookup_row(self, key: str, equivalence: str, strat: str,
                    ckey: str, cap: int | None) -> Verdict | None:
        if self._conn is None:
            return None
        try:
            row = self._conn.execute(
                "SELECT truth, reason, budget_floor, evidence, stats, "
                "schema_version, checksum FROM verdicts WHERE pair_key=? "
                "AND equivalence=? AND strategy=? AND calculus=?",
                (key, equivalence, strat, ckey)).fetchone()
        except sqlite3.Error:
            self.counters["errors"] += 1
            return None
        if row is None:
            return None
        (truth, reason, floor, evidence, stats_json,
         schema_version, checksum) = row
        if schema_version != SCHEMA_VERSION:
            return None  # version skew: invisible, not reinterpreted
        expect = _row_checksum(key, equivalence, strat, ckey, truth, reason,
                               floor, evidence, schema_version)
        if checksum != expect or truth not in ("true", "false", "unknown"):
            # Bit rot / tampering: drop the row and recompute.
            self.counters["integrity_failures"] += 1
            self._delete_row(key, equivalence, strat, ckey)
            return None
        if truth == "unknown":
            # UNKNOWN at cap B short-circuits only requests with cap <= B.
            if cap is None or cap > floor:
                return None
            self.counters["hits_unknown"] += 1
            self._note_budget_relation(cap, floor, smaller=True)
            return Verdict.unknown(reason or "max-states",
                                   stats=self._stats_of(stats_json, floor),
                                   evidence=self._evidence_of(evidence))
        # Definite at floor B answers any request with cap >= B.
        if cap is not None and cap < floor:
            return None
        self.counters["hits_definite"] += 1
        self._note_budget_relation(cap, floor, smaller=False)
        return Verdict.of(truth == "true",
                          stats=self._stats_of(stats_json, floor))

    def _note_budget_relation(self, cap: int | None, floor: int,
                              smaller: bool) -> None:
        if cap == floor:
            self.counters["hits_at_equal_budget"] += 1
        elif smaller:
            self.counters["hits_at_smaller_budget"] += 1
        else:
            self.counters["hits_at_larger_budget"] += 1

    @staticmethod
    def _stats_of(stats_json: str | None, floor: int) -> dict[str, Any]:
        stats: dict[str, Any] = {}
        if stats_json:
            try:
                loaded = json.loads(stats_json)
                if isinstance(loaded, dict):
                    stats = loaded
            except ValueError:
                pass
        stats["store"] = "hit"
        stats["store_floor"] = floor
        return stats

    @staticmethod
    def _evidence_of(evidence_json: str | None) -> PartialProduct | None:
        if not evidence_json:
            return None
        try:
            d = json.loads(evidence_json)
            return PartialProduct(
                pairs_expanded=int(d["pairs_expanded"]),
                frontier=int(d["frontier"]),
                max_depth=int(d["max_depth"]),
                relation=())
        except (ValueError, KeyError, TypeError):
            return None

    def _delete_row(self, key: str, equivalence: str, strat: str,
                    ckey: str) -> None:
        if self._conn is None:
            return
        try:
            self._conn.execute(
                "DELETE FROM verdicts WHERE pair_key=? AND equivalence=? "
                "AND strategy=? AND calculus=?",
                (key, equivalence, strat, ckey))
            self._conn.commit()
        except sqlite3.Error:
            self.counters["errors"] += 1

    # -- recording --------------------------------------------------------
    def record(self, p: Process, q: Process, verdict: Verdict, *,
               relation: str = "labelled", weak: bool = False,
               strategy: str | None = None,
               cap: "int | None | Budget | Meter" = None,
               calculus: "str | None" = None) -> bool:
        """Persist *verdict* for this request; True when a row was written.

        Uncacheable verdicts (deadline/cancellation trips, UNKNOWN with
        no finite cap) are skipped.  An existing row is only replaced by
        a strictly better one: definite beats UNKNOWN, a lower definite
        floor beats a higher one, a higher UNKNOWN cap beats a lower —
        or by any row when the existing one carries another
        ``schema_version`` (lookups never serve it).  The check and the
        write are one statement, so concurrent writers cannot interleave.
        """
        if isinstance(cap, (Budget, Meter)):
            cap = request_cap(cap)
        floor, reason, evidence_json = self._floor_of(verdict, cap)
        if floor is None:
            return False
        ckey = calculus_key(calculus)
        key = self._pair_key(p, q, ckey)
        equivalence = equivalence_name(relation, weak)
        strat = strategy or "default"
        truth = verdict.truth.value
        stats_json = json.dumps(_jsonable(verdict.stats), sort_keys=True)
        checksum = _row_checksum(key, equivalence, strat, ckey, truth,
                                 reason, floor, evidence_json,
                                 SCHEMA_VERSION)
        if self._conn is None:
            self.counters["errors"] += 1
            return False
        try:
            written = self._conn.execute(
                _UPSERT, (key, equivalence, strat, ckey, truth, reason,
                          floor, evidence_json, stats_json, SCHEMA_VERSION,
                          checksum, time.time())).rowcount == 1
            # Commit either way: a skipped upsert still opened a write
            # transaction, which would block every other writer.
            self._conn.commit()
        except sqlite3.Error:
            self.counters["errors"] += 1
            return False
        if not written:
            return False
        self.counters["records"] += 1
        if _OBS.enabled:
            _metrics.inc("store.record")
        return True

    @staticmethod
    def _floor_of(verdict: Verdict, cap: int | None,
                  ) -> tuple[int | None, str | None, str | None]:
        """(budget_floor, reason, evidence_json); floor None = don't cache."""
        if verdict.is_definite:
            # The completing meter's charge count is the tight floor; fall
            # back to the request cap when the checker kept no stats.
            states = verdict.stats.get("states")
            if isinstance(states, int) and states >= 0:
                return states, None, None
            return (cap if isinstance(cap, int) else 0), None, None
        if verdict.reason != "max-states":
            return None, None, None  # wall-clock trips are not floors
        # The honest floor is the smallest cap known to be insufficient:
        # the tripping meter's own limit, clamped by the request's cap (a
        # shared meter trips at its *full* limit even when this request
        # only had the remainder).
        stats_cap = verdict.stats.get("max_states")
        known = [c for c in (stats_cap, cap) if isinstance(c, int)]
        if not known:
            return None, None, None
        tripped_cap = min(known)
        evidence_json = None
        if isinstance(verdict.evidence, PartialProduct):
            ev = verdict.evidence
            evidence_json = json.dumps(
                {"pairs_expanded": ev.pairs_expanded,
                 "frontier": ev.frontier, "max_depth": ev.max_depth},
                sort_keys=True)
        return tripped_cap, verdict.reason, evidence_json

    # -- the thin-client core ---------------------------------------------
    def check(self, p: Process, q: Process, *, relation: str = "labelled",
              weak: bool = False, strategy: str | None = None,
              budget: "Budget | Meter | None" = None,
              calculus: "str | None" = None) -> Verdict:
        """Store-mediated :func:`repro.api.check`: lookup, else compute
        and record.  The single core the CLI ``eq --store``, ``repro
        batch`` and ``repro serve`` are thin clients of."""
        from ..api import check as _direct_check
        cap = request_cap(budget)
        cached = self.lookup(p, q, relation=relation, weak=weak,
                             strategy=strategy, cap=cap, calculus=calculus)
        if cached is not None:
            return cached
        try:
            verdict = _direct_check(p, q, relation=relation, weak=weak,
                                    budget=budget, strategy=strategy,
                                    calculus=calculus)
        except BudgetExceeded as exc:  # pragma: no cover - check() never
            return Verdict.from_exceeded(exc)  # leaks trips; belt+braces
        self.record(p, q, verdict, relation=relation, weak=weak,
                    strategy=strategy, cap=cap, calculus=calculus)
        return verdict

    def stats(self) -> dict[str, Any]:
        """Counters + row count, for bench blocks and CLI summaries."""
        out: dict[str, Any] = dict(self.counters)
        out["rows"] = len(self)
        out["path"] = self.path
        return out

    def __repr__(self) -> str:
        return (f"VerdictStore({self.path!r}, rows={len(self)}, "
                f"hits={self.counters['hits']}, "
                f"misses={self.counters['misses']})")


def _improves(old_truth: str, old_floor: int, new_truth: str,
              new_floor: int) -> bool:
    """Is (new_truth, new_floor) a strictly better row than the old one?"""
    old_definite = old_truth in ("true", "false")
    new_definite = new_truth in ("true", "false")
    if new_definite and not old_definite:
        return True
    if new_definite and old_definite:
        return new_floor < old_floor  # cheaper completion serves more
    if not new_definite and not old_definite:
        return new_floor > old_floor  # higher cap short-circuits more
    return False
