"""The verdict store and batch service.

The hard invariant under test everywhere: a stale, corrupt or skewed
store can only cause *recomputation*, never a wrong verdict.  The
Hypothesis property pins store-mediated verdicts to direct
:func:`repro.api.check` verdicts at equal budgets.
"""

from __future__ import annotations

import io
import json
import os
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import check
from repro.core.parser import parse
from repro.engine.budget import Budget
from repro.engine.verdict import Verdict
from repro.equiv.onthefly import PartialProduct
from repro.store import (
    CheckRequest,
    VerdictStore,
    equivalence_name,
    evaluate_request,
    parse_requests,
    run_batch,
)
from repro.store import db as store_db
from repro.store.batch import RequestError, request_from_record, serve
from repro.store.db import SCHEMA_VERSION, _improves, _row_checksum, request_cap

from tests.strategies import processes1


@pytest.fixture
def store(tmp_path):
    with VerdictStore(tmp_path / "verdicts.sqlite") as s:
        yield s


class TestReuseRule:
    def test_definite_serves_equal_and_larger_budgets(self, store):
        p, q = parse("a!"), parse("a!")
        store.record(p, q, Verdict.of(True, stats={"states": 10}), cap=100)
        assert store.lookup(p, q, cap=10).is_true   # floor == cap
        assert store.lookup(p, q, cap=500).is_true  # larger
        assert store.lookup(p, q, cap=None).is_true  # unlimited
        assert store.lookup(p, q, cap=9) is None    # smaller: miss

    def test_definite_floor_is_actual_charge_not_request_cap(self, store):
        p, q = parse("a!"), parse("b!")
        store.record(p, q, Verdict.of(False, stats={"states": 3}),
                     cap=10_000)
        # A request far below the original cap but above the true cost
        # is still served: completed searches are budget-independent.
        assert store.lookup(p, q, cap=3).is_false

    def test_unknown_serves_only_smaller_or_equal_budgets(self, store):
        p, q = parse("a!"), parse("a?.a!")
        unk = Verdict.unknown("max-states", stats={"max_states": 50})
        assert store.record(p, q, unk, cap=50)
        got = store.lookup(p, q, cap=50)
        assert got is not None and got.is_unknown
        assert store.lookup(p, q, cap=20).is_unknown
        assert store.lookup(p, q, cap=51) is None   # larger might complete
        assert store.lookup(p, q, cap=None) is None  # unlimited must try

    def test_wall_clock_trips_are_never_cached(self, store):
        p, q = parse("a!"), parse("b!")
        for reason in ("deadline", "cancelled"):
            assert not store.record(
                p, q, Verdict.unknown(reason, stats={"max_states": 9}),
                cap=9)
        assert len(store) == 0

    def test_unknown_floor_clamped_to_request_cap(self, store):
        # A shared meter trips at its full limit even when this request
        # only had the remainder; the recorded floor must be the min.
        p, q = parse("a!"), parse("a?.b!")
        unk = Verdict.unknown("max-states", stats={"max_states": 1_000})
        store.record(p, q, unk, cap=40)
        assert store.lookup(p, q, cap=40).is_unknown
        assert store.lookup(p, q, cap=41) is None

    def test_unknown_keeps_partial_product_evidence(self, store):
        p, q = parse("a!"), parse("a?.a!")
        ev = PartialProduct(pairs_expanded=7, frontier=3, max_depth=2,
                            relation=())
        store.record(p, q, Verdict.unknown("max-states",
                                           stats={"max_states": 30},
                                           evidence=ev), cap=30)
        got = store.lookup(p, q, cap=30)
        assert isinstance(got.evidence, PartialProduct)
        assert got.evidence.pairs_expanded == 7
        assert "after 7 pairs" in got.evidence.summary()

    def test_keys_separate_relations_weak_and_strategy(self, store):
        p, q = parse("tau.a!"), parse("a!")
        store.record(p, q, Verdict.of(True, stats={"states": 2}),
                     relation="labelled", weak=True)
        assert store.lookup(p, q, relation="labelled", weak=True) is not None
        assert store.lookup(p, q, relation="labelled", weak=False) is None
        assert store.lookup(p, q, relation="barbed", weak=True) is None
        assert store.lookup(p, q, relation="labelled", weak=True,
                            strategy="global") is None

    def test_congruent_spellings_share_a_row(self, store):
        store.record(parse("a! | b!"), parse("c!"),
                     Verdict.of(False, stats={"states": 4}))
        assert store.lookup(parse("b! | (a! | 0)"), parse("c!")).is_false

    def test_check_computes_one_pair_key(self, store, monkeypatch):
        # A miss looks the pair up and records it under one key, a hit
        # only looks it up: either way the pair is encoded once.
        import repro.store.db as db
        calls = []

        def counting(p, q, calculus="bpi"):
            calls.append((p, q))
            return real(p, q, calculus=calculus)

        real = db.pair_key
        monkeypatch.setattr(db, "pair_key", counting)
        pairs = [(parse("a! | b!"), parse("b! | a!")),
                 (parse("a!"), parse("b!")),
                 (parse("tau.a!"), parse("a!"))]
        for p, q in pairs:
            computed = store.check(p, q)
            assert len(calls) == 1 and store.counters["misses"] > 0
            calls.clear()
            assert store.check(p, q) == computed
            assert len(calls) <= 1
            calls.clear()
        assert store.counters["records"] == len(pairs)
        assert store.counters["hits"] == len(pairs)

    def test_upsert_policy(self):
        # definite beats unknown; cheaper definite floor beats dearer;
        # higher unknown cap beats lower; never downgrade.
        assert _improves("unknown", 50, "true", 10)
        assert not _improves("true", 10, "unknown", 999)
        assert _improves("true", 10, "false", 5)
        assert not _improves("true", 5, "true", 10)
        assert _improves("unknown", 10, "unknown", 20)
        assert not _improves("unknown", 20, "unknown", 10)


class TestIntegrity:
    def _corrupt(self, store, **updates):
        sets = ", ".join(f"{k}=?" for k in updates)
        store._conn.execute(f"UPDATE verdicts SET {sets}",
                            tuple(updates.values()))
        store._conn.commit()

    def test_flipped_truth_is_a_miss_and_row_dropped(self, store):
        p, q = parse("a!"), parse("b!")
        store.record(p, q, Verdict.of(False, stats={"states": 2}))
        self._corrupt(store, truth="true")  # checksum no longer matches
        assert store.lookup(p, q) is None
        assert store.counters["integrity_failures"] == 1
        assert len(store) == 0  # tampered row deleted, will recompute

    def test_schema_version_skew_is_invisible(self, store):
        p, q = parse("a!"), parse("a!")
        store.record(p, q, Verdict.of(True, stats={"states": 1}))
        self._corrupt(store, schema_version=99)
        assert store.lookup(p, q) is None
        # version skew is not "corruption": the row is left for the
        # version that wrote it
        assert len(store) == 1

    def test_record_replaces_a_version_skewed_row(self, store):
        # A skewed row is invisible to lookups, so it must not block the
        # current version's record either, or the pair recomputes forever.
        p, q = parse("a!"), parse("b!")
        assert store.record(p, q, Verdict.of(False, stats={"states": 1}))
        self._corrupt(store, schema_version=99)
        assert store.record(p, q, Verdict.of(False, stats={"states": 3}))
        assert store.lookup(p, q).is_false
        assert len(store) == 1

    def test_rows_of_the_previous_key_version_are_misses(self, store):
        # Version 3 changed every canonical form and pair key; a row that
        # version 2 wrote, with its own valid checksum, reads as a miss.
        assert SCHEMA_VERSION == 3
        p, q = parse("a! | nu x x<b>"), parse("a!")
        store.record(p, q, Verdict.of(False, stats={"states": 2}))
        row = store._conn.execute(
            "SELECT pair_key, equivalence, strategy, calculus, truth, "
            "reason, budget_floor, evidence FROM verdicts").fetchone()
        self._corrupt(store, schema_version=2,
                      checksum=_row_checksum(*row, 2))
        assert store.lookup(p, q) is None
        assert store.counters["integrity_failures"] == 0
        assert len(store) == 1
        assert store.check(p, q).is_false  # recomputed, not misread

    def test_garbage_floor_is_a_miss(self, store):
        p, q = parse("a!"), parse("a!")
        store.record(p, q, Verdict.of(True, stats={"states": 1}))
        self._corrupt(store, budget_floor=-12)
        assert store.lookup(p, q) is None

    def test_unopenable_store_is_a_store_of_misses(self, tmp_path):
        path = tmp_path / "not-a-dir" / "x.sqlite"  # parent missing
        s = VerdictStore(path)
        assert s.counters["errors"] == 1
        assert s.lookup(parse("a!"), parse("a!")) is None
        assert not s.record(parse("a!"), parse("a!"), Verdict.of(True))
        assert len(s) == 0

    def test_non_sqlite_file_degrades_to_misses(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"this is not a database at all" * 10)
        s = VerdictStore(path)
        assert s.lookup(parse("a!"), parse("a!")) is None
        v = s.check(parse("a!"), parse("a!"))
        assert v.is_true  # still computes, just cannot cache


class _NoJournalSwitch:
    """A connection whose journal pragma fails, like a file that cannot
    be written; every other call reaches the real connection."""

    def __init__(self, conn):
        self._conn = conn

    def execute(self, sql, *args):
        if sql.startswith("PRAGMA journal_mode"):
            raise sqlite3.OperationalError("cannot change journal mode")
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestJournal:
    @staticmethod
    def _pragma(s, name):
        return s._conn.execute(f"PRAGMA {name}").fetchone()[0]

    def test_file_store_journals_in_wal(self, store):
        assert self._pragma(store, "journal_mode") == "wal"
        assert self._pragma(store, "synchronous") == 1  # NORMAL
        assert store.counters["errors"] == 0

    def test_two_stores_on_one_path_share_rows(self, tmp_path):
        path = tmp_path / "v.sqlite"
        p, q = parse("a!"), parse("b!")
        with VerdictStore(path) as writer, VerdictStore(path) as reader:
            assert reader.lookup(p, q) is None
            assert writer.record(p, q, Verdict.of(False, stats={"states": 2}))
            assert reader.lookup(p, q).is_false
            # the better row one writes is the row the other keeps
            assert reader.record(p, q, Verdict.of(False, stats={"states": 1}))
            assert not writer.record(p, q,
                                     Verdict.of(False, stats={"states": 2}))
            assert writer.lookup(p, q).stats["store_floor"] == 1

    def test_concurrent_writers_keep_the_best_row(self, tmp_path):
        # Every record improves on the writer's own last one; a check made
        # apart from the write would let a stale comparison overwrite
        # another writer's better row.  More writers than cores, and a
        # short switch interval, so the threads interleave.
        p, q = parse("a!"), parse("b!")
        writers, per = 4, 60

        def write(path, k):
            with VerdictStore(path) as s:
                for floor in range(writers * per - k, 0, -writers):
                    s.record(p, q, Verdict.of(False, stats={"states": floor}))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(10):
                path = tmp_path / f"v{trial}.sqlite"
                threads = [threading.Thread(target=write, args=(path, k))
                           for k in range(writers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                with VerdictStore(path) as s:
                    assert s.lookup(p, q).stats["store_floor"] == 1
        finally:
            sys.setswitchinterval(interval)

    def test_last_close_leaves_no_sidecar_files(self, tmp_path):
        path = tmp_path / "v.sqlite"
        first, second = VerdictStore(path), VerdictStore(path)
        first.record(parse("a!"), parse("a!"), Verdict.of(True))
        second.record(parse("a!"), parse("b!"), Verdict.of(False))
        first.close()
        second.close()
        assert sorted(f.name for f in tmp_path.iterdir()) == ["v.sqlite"]
        with VerdictStore(path) as s:
            assert len(s) == 2

    def test_failed_journal_switch_still_serves(self, tmp_path,
                                                monkeypatch):
        connect = sqlite3.connect
        monkeypatch.setattr(store_db.sqlite3, "connect",
                            lambda *a, **k: _NoJournalSwitch(connect(*a, **k)))
        path = tmp_path / "v.sqlite"
        with VerdictStore(path) as s:
            p, q = parse("a!"), parse("b!")
            assert s.record(p, q, Verdict.of(False, stats={"states": 2}))
            assert s.lookup(p, q).is_false
            assert s.check(p, q).stats["store"] == "hit"
            assert s.counters["errors"] <= 1
            assert s.counters["hits"] == 2
            assert not Path(f"{path}-wal").exists()  # still a rollback journal

    def test_memory_store_keeps_its_journal(self):
        with VerdictStore(":memory:") as s:
            assert self._pragma(s, "journal_mode") == "memory"
            assert self._pragma(s, "synchronous") == 2  # FULL, the default
            assert s.record(parse("a!"), parse("a!"), Verdict.of(True))
            assert s.lookup(parse("a!"), parse("a!")).is_true
            assert s.counters["errors"] == 0


class TestStoreMediatedAgreement:
    @settings(max_examples=40, deadline=None)
    @given(p=processes1, q=processes1, cap=st.integers(4, 60))
    def test_store_mediated_equals_direct_at_equal_budgets(self, p, q, cap):
        budget = Budget(max_states=cap)
        direct = check(p, q, budget=budget)
        with VerdictStore(":memory:") as s:
            first = s.check(p, q, budget=budget)
            second = s.check(p, q, budget=budget)
        assert first.truth is direct.truth
        assert second.truth is direct.truth
        assert second.reason == direct.reason

    def test_persists_across_store_instances(self, tmp_path):
        path = tmp_path / "v.sqlite"
        p, q = parse("a<v> | a(x).x!"), parse("a<v> | a(x).x!")
        with VerdictStore(path) as s:
            v1 = s.check(p, q, relation="barbed")
            assert "store" not in v1.stats
        with VerdictStore(path) as s:
            v2 = s.check(p, q, relation="barbed")
            assert v2.truth is v1.truth
            assert v2.stats["store"] == "hit"

    def test_api_check_store_kwarg(self, tmp_path):
        path = tmp_path / "v.sqlite"
        assert check("a!", "a!", store=path).is_true
        v = check("a!", "a!", store=str(path))
        assert v.is_true and v.stats["store"] == "hit"


class TestRequests:
    def test_parse_requests_skips_blanks_and_comments(self):
        reqs = parse_requests(["", "# comment", '{"p": "a!", "q": "b!"}'])
        assert len(reqs) == 1 and reqs[0].relation == "labelled"

    def test_line_numbers_in_errors(self):
        with pytest.raises(RequestError, match="line 2"):
            parse_requests(['{"p": "a!", "q": "a!"}', "{nope"])

    @pytest.mark.parametrize("rec, msg", [
        ({"q": "a!"}, "field 'p'"),
        ({"p": "a!", "q": 3}, "field 'q'"),
        ({"p": "a!", "q": "a!", "relation": "magic"}, "unknown relation"),
        ({"p": "a!", "q": "a!", "max_states": 0}, "positive"),
        ({"p": "a!", "q": "a!", "deadline": "soon"}, "number"),
        ({"p": "a!", "q": "a!", "frobnicate": 1}, "unknown fields"),
        ({"p": "a!", "q": "a!", "strategy": "bogus"}, "unknown strategy"),
        ({"p": "a!", "q": "a!", "relation": "noisy", "strategy": "global"},
         "strategy applies to"),
        ({"p": "tau.a!", "q": "a!", "relation": "barbed", "weak": "false"},
         "JSON boolean"),
        ({"p": "a!", "q": "a!", "weak": 0}, "JSON boolean"),
        ({"p": "a!", "q": "a!", "max_states": True}, "positive"),
        ({"p": "a!", "q": "a!", "deadline": False}, "number"),
    ])
    def test_record_validation(self, rec, msg):
        with pytest.raises(RequestError, match=msg):
            request_from_record(rec)

    def test_process_parse_error_carries_line(self):
        with pytest.raises(RequestError, match="line 1"):
            parse_requests(['{"p": "a! +", "q": "a!"}'])

    def test_request_cap_precedence(self):
        assert request_cap(Budget(max_states=7)) == 7
        assert request_cap(Budget(max_states=None)) is None
        assert request_cap(None) is not None  # checker-default pool
        assert CheckRequest(parse("a!"), parse("a!")).budget() is None
        assert CheckRequest(parse("a!"), parse("a!"),
                            max_states=5).budget().max_states == 5

    def test_equivalence_name(self):
        assert equivalence_name("labelled", False) == "labelled"
        assert equivalence_name("step", True) == "weak step"


class TestBatch:
    def _reqs(self, *lines):
        return parse_requests(list(lines))

    def test_dedup_within_one_batch(self, store):
        out = run_batch(self._reqs(
            '{"id": "x", "p": "a!", "q": "a!"}',
            '{"id": "y", "p": "a! | 0", "q": "a!"}',  # congruent spelling
            '{"id": "z", "p": "b!", "q": "b!"}'), store=store)
        assert [r.source for r in out.results] == \
            ["computed", "dedup", "computed"]
        assert out.computed == 2 and out.deduped == 1
        assert all(r.verdict.is_true for r in out.results)

    def test_warm_run_is_all_hits(self, store):
        reqs = self._reqs('{"p": "a!", "q": "a!"}',
                          '{"p": "a!", "q": "b!"}',
                          '{"p": "tau.a!", "q": "a!", "weak": true}')
        cold = run_batch(reqs, store=store)
        warm = run_batch(reqs, store=store)
        assert cold.store_hits == 0 and cold.computed == 3
        assert warm.store_hits == 3 and warm.computed == 0
        assert [r.verdict.truth for r in cold.results] == \
            [r.verdict.truth for r in warm.results]

    def test_different_budgets_do_not_dedup(self, store):
        out = run_batch(self._reqs(
            '{"p": "a!", "q": "a!", "max_states": 5}',
            '{"p": "a!", "q": "a!", "max_states": 9}'), store=store)
        assert out.deduped == 0 and out.computed == 2

    def test_exit_contract_unknown(self):
        out = run_batch([CheckRequest(parse("rec X(). tau.(a! | X)"),
                                      parse("rec Y(). tau.(a! | a! | Y)"),
                                      strategy="global", max_states=50)])
        assert not out.all_definite
        assert out.results[0].verdict.is_unknown

    def test_worker_pool_matches_inline(self, store):
        reqs = self._reqs(
            '{"id": "1", "p": "a!", "q": "a!"}',
            '{"id": "2", "p": "a! + b!", "q": "b! + a!"}',
            '{"id": "3", "p": "a!", "q": "b!"}',
            '{"id": "4", "p": "nu c (c<a> | c(x).x!)", '
            '"q": "nu d (d<a> | d(y).y!)"}')
        pooled = run_batch(reqs, workers=2)
        inline = run_batch(reqs, workers=0)
        assert [r.verdict.truth for r in pooled.results] == \
            [r.verdict.truth for r in inline.results]
        assert pooled.workers == 2
        # and pooled results are recordable/reusable like any others
        for r in pooled.results:
            store.record(r.request.p, r.request.q, r.verdict,
                         cap=r.request.cap())
        warm = run_batch(reqs, store=store)
        assert warm.store_hits == len(reqs)

    def test_evaluate_request_degrades_to_unknown(self):
        v = evaluate_request(parse("rec X(). tau.(a! | X)"),
                             parse("rec Y(). tau.(a! | a! | Y)"),
                             strategy="global", max_states=20)
        assert isinstance(v, Verdict) and v.is_unknown
        assert v.reason == "max-states"

    def test_run_batch_without_store(self):
        out = run_batch(self._reqs('{"p": "a!", "q": "a!"}'))
        assert out.store_hits == 0 and out.results[0].verdict.is_true
        assert out.store_stats == {}


class TestServe:
    def test_serve_round_trip(self, store):
        lines = io.StringIO(
            '{"id": "r1", "p": "a!", "q": "a!"}\n'
            "# a comment\n"
            "not json\n"
            '{"id": "r2", "p": "a!", "q": "b!"}\n'
            '{"id": "r1", "p": "a!", "q": "a!"}\n')
        out = io.StringIO()
        served = serve(lines, out, store=store)
        assert served == 3
        answers = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert answers[0]["truth"] == "true"
        assert answers[0]["source"] == "computed"
        assert "error" in answers[1]
        assert answers[2]["truth"] == "false"
        assert answers[3]["source"] == "store"  # same request, now cached

    def test_serve_bad_strategy_is_an_error_line_not_a_crash(self):
        lines = io.StringIO(
            '{"id": "bad", "p": "a!", "q": "a!", "strategy": "bogus"}\n'
            '{"id": "ok", "p": "a!", "q": "a!", "relation": "barbed",'
            ' "strategy": "global"}\n')
        out = io.StringIO()
        assert serve(lines, out) == 1
        first, second = (json.loads(ln)
                         for ln in out.getvalue().splitlines())
        assert first["line"] == 1 and "unknown strategy" in first["error"]
        assert second["id"] == "ok" and second["truth"] == "true"

    def test_serve_without_store(self):
        out = io.StringIO()
        served = serve(io.StringIO('{"p": "a!", "q": "a!"}\n'), out)
        assert served == 1
        assert json.loads(out.getvalue())["source"] == "computed"

    @pytest.mark.parametrize("bad, raised", [
        ('{"id": "open", "p": "X<a>", "q": "a!"}', "TypeError"),
        ('{"id": "deep", "p": "rec X(). X", "q": "0"}', "RecursionError"),
        # Each input doubles the composition: 20 states hold ~2^20 Pars.
        ('{"id": "doubling", "p": "rec Y(e). e(y).(Y<e> | 0 + Y<e>)",'
         ' "q": "0", "max_states": 20}', "RecursionError"),
    ], ids=["open-term", "unguarded-rec", "doubling-pair"])
    def test_a_request_that_raises_is_an_error_line(self, bad, raised,
                                                     tmp_path):
        # A subprocess, so that a stack overflow cannot take pytest down.
        src = Path(__file__).parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--store", str(tmp_path / "v.sqlite")],
            input=bad + '\n{"id": "ok", "p": "a!", "q": "a!"}\n',
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
        err, ok = (json.loads(ln) for ln in result.stdout.splitlines())
        assert err["line"] == 1 and err["id"] == json.loads(bad)["id"]
        assert err["error"].startswith(f"{raised}: ")
        assert ok["id"] == "ok" and ok["truth"] == "true"
        assert "answered 1 requests" in result.stderr
