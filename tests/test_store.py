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
    answer_line,
    answer_lines,
    equivalence_name,
    evaluate_request,
    request_from_record,
    serve,
)
from repro.store import db as store_db
from repro.store.batch import RequestError
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


def _answers(path, *lines, workers=0):
    """``repro batch``'s request loop over *lines* through the store at
    *path*; the run must not be degraded."""
    answers, degraded = answer_lines(list(lines), str(path),
                                     workers=workers)
    assert not degraded
    return answers


class TestRequests:
    def test_blank_and_comment_lines_are_skipped(self, tmp_path):
        answers = _answers(tmp_path / "v.sqlite",
                           "", "# comment", '{"p": "a!", "q": "b!"}')
        assert [a["truth"] for a in answers] == ["false"]

    def test_line_numbers_in_errors(self, tmp_path):
        first, second = _answers(tmp_path / "v.sqlite",
                                 '{"p": "a!", "q": "a!"}', "{nope")
        assert first["truth"] == "true"
        assert second["line"] == 2 and "error" in second

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
        # json.loads reads NaN and ±Infinity; none of them is a deadline.
        ({"p": "a!", "q": "a!", "deadline": float("nan")}, "finite"),
        ({"p": "a!", "q": "a!", "deadline": float("inf")}, "finite"),
        ({"p": "a!", "q": "a!", "deadline": float("-inf")}, "finite"),
    ])
    def test_record_validation(self, rec, msg):
        with pytest.raises(RequestError, match=msg):
            request_from_record(rec)
        # ... and on the wire, the line is an error that names the rule.
        answer = answer_line(4, json.dumps(rec), None)
        assert answer["line"] == 4 and msg in answer["error"]

    def test_process_parse_error_carries_line(self, tmp_path):
        answers = _answers(tmp_path / "v.sqlite", "# header",
                           '{"p": "a! +", "q": "a!"}')
        assert answers == [{"line": 2, "error": answers[0]["error"]}]

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


#: A pair the global strategy cannot finish: UNKNOWN at any cap.
_DIVERGING = ('"p": "rec X(). tau.(a! | X)", '
              '"q": "rec Y(). tau.(a! | a! | Y)", "strategy": "global"')


def _die_in_worker(path, lineno, line):
    """A pool worker killed before it answers (module-level: the pool
    pickles it by name)."""
    os._exit(1)


class TestBatch:
    def test_dedup_within_one_batch(self, tmp_path):
        answers = _answers(
            tmp_path / "v.sqlite",
            '{"id": "x", "p": "a!", "q": "a!"}',
            '{"id": "y", "p": "a! | 0", "q": "a!"}',  # congruent spelling
            '{"id": "z", "p": "b!", "q": "b!"}')
        assert [a["source"] for a in answers] == \
            ["computed", "store", "computed"]
        assert all(a["truth"] == "true" for a in answers)

    def test_warm_run_is_all_hits(self, tmp_path):
        lines = ('{"p": "a!", "q": "a!"}', '{"p": "a!", "q": "b!"}',
                 '{"p": "tau.a!", "q": "a!", "weak": true}')
        cold = _answers(tmp_path / "v.sqlite", *lines)
        warm = _answers(tmp_path / "v.sqlite", *lines)
        assert [a["source"] for a in cold] == ["computed"] * 3
        assert [a["source"] for a in warm] == ["store"] * 3
        assert [a["truth"] for a in cold] == [a["truth"] for a in warm]

    def test_different_budgets_do_not_dedup(self, tmp_path):
        # An UNKNOWN at cap 20 cannot answer cap 60, which might finish;
        # the UNKNOWN at cap 60 answers the later cap-20 request.
        answers = _answers(
            tmp_path / "v.sqlite",
            *(f'{{{_DIVERGING}, "max_states": {cap}}}' for cap in (20, 60,
                                                                   20)))
        assert [(a["truth"], a["reason"], a["source"]) for a in answers] \
            == [("unknown", "max-states", "computed"),
                ("unknown", "max-states", "computed"),
                ("unknown", "max-states", "store")]

    def test_exit_contract_unknown(self, tmp_path):
        (answer,) = _answers(tmp_path / "v.sqlite",
                             f'{{{_DIVERGING}, "max_states": 50}}')
        assert answer["truth"] == "unknown"

    def test_worker_pool_matches_inline(self, tmp_path):
        lines = (
            '{"id": "1", "p": "a!", "q": "a!"}',
            '{"id": "2", "p": "a! + b!", "q": "b! + a!"}',
            '{"id": "3", "p": "a!", "q": "b!"}',
            '{"id": "4", "p": "nu c (c<a> | c(x).x!)", '
            '"q": "nu d (d<a> | d(y).y!)"}',
            '{"id": "5", "p": "X<a>", "q": "a!"}',
            "{nope")
        pooled = _answers(tmp_path / "pooled.sqlite", *lines, workers=2)
        inline = _answers(tmp_path / "inline.sqlite", *lines)

        def strip(answers):
            return [{k: v for k, v in a.items() if k != "seconds"}
                    for a in answers]
        assert strip(pooled) == strip(inline)
        # and what the workers recorded serves the next run
        warm = _answers(tmp_path / "pooled.sqlite", *lines)
        assert [a.get("source") for a in warm] == ["store"] * 4 + [None] * 2

    def test_pool_that_cannot_start_degrades_to_inline(self, tmp_path,
                                                       monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise OSError("no processes here")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        answers, degraded = answer_lines(
            ['{"p": "a!", "q": "a!"}', '{"p": "a!", "q": "b!"}'],
            str(tmp_path / "v.sqlite"), workers=2)
        assert degraded
        assert [a["truth"] for a in answers] == ["true", "false"]

    def test_dead_worker_degrades_to_inline(self, tmp_path, monkeypatch):
        from repro.store import batch
        monkeypatch.setattr(batch, "_answer_in_worker", _die_in_worker)
        answers, degraded = answer_lines(
            ['{"p": "a!", "q": "a!"}', '{"p": "a!", "q": "b!"}'],
            str(tmp_path / "v.sqlite"), workers=2)
        assert degraded
        assert [a["truth"] for a in answers] == ["true", "false"]

    def test_evaluate_request_degrades_to_unknown(self):
        v = evaluate_request(request_from_record(json.loads(
            f'{{{_DIVERGING}, "max_states": 20}}')))
        assert isinstance(v, Verdict) and v.is_unknown
        assert v.reason == "max-states"

    def test_batch_without_store_uses_a_temporary_store(self, tmp_path,
                                                        capsys,
                                                        monkeypatch):
        import tempfile

        from repro.__main__ import main
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text('{"p": "a!", "q": "a!"}\n'
                        '{"p": "a! | 0", "q": "a!"}\n')
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        assert main(["batch", str(reqs), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [a["source"] for a in payload["results"]] == \
            ["computed", "store"]
        assert list(scratch.iterdir()) == []  # the run's store is gone


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


# -- one request loop: serve and batch answer alike -------------------------

#: Valid requests, each decided quickly (one UNKNOWN by its cap).
_VALID = (
    {"p": "a!", "q": "a!"},
    {"p": "a!", "q": "b!"},
    {"p": "a! | 0", "q": "a!"},
    {"p": "tau.a!", "q": "a!", "weak": True},
    {"p": "a! + b!", "q": "b! + a!", "relation": "barbed"},
    {"p": "a!.b!", "q": "a!.c!", "relation": "step", "max_states": 500},
    {"p": "a?", "q": "0", "relation": "noisy"},
    {"p": "rec X(). tau.(a! | X)", "q": "rec Y(). tau.(a! | a! | Y)",
     "strategy": "global", "max_states": 50},
)

#: Records that break one field rule each: wrong types, missing, unknown.
_INVALID = (
    {"q": "a!"}, {"p": "a!"}, {"p": 3, "q": "a!"}, {"p": "a!", "q": None},
    {"p": "a!", "q": "a!", "weak": "yes"},
    {"p": "a!", "q": "a!", "max_states": 0},
    {"p": "a!", "q": "a!", "max_states": 1.5},
    {"p": "a!", "q": "a!", "deadline": "soon"},
    {"p": "a!", "q": "a!", "deadline": float("nan")},
    {"p": "a!", "q": "a!", "deadline": float("-inf")},
    {"p": "a!", "q": "a!", "relation": "magic"},
    {"p": "a!", "q": "a!", "calculus": 7},
    {"p": "a!", "q": "a!", "frobnicate": 1},
)

#: Process strings that do not parse, and open terms that parse but are
#: no processes.  Unguarded recursions and the doubling pair are left
#: out: each costs seconds before its error line and may overflow the
#: stack (``test_a_request_that_raises_is_an_error_line`` runs them in a
#: subprocess).
_UNPARSABLE = ("a! +", "((a!", "nu", "a<", "a(x", ")")
_OPEN = ("X<a>", "a?.X<b>", "X<a> | b!")

_printable = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                     min_size=1, max_size=30)
_request_line = st.one_of(
    st.sampled_from(_VALID).map(lambda r: ("verdict", json.dumps(r))),
    st.sampled_from(_INVALID).map(lambda r: ("error", json.dumps(r))),
    # garbled JSON: a valid record cut short
    st.sampled_from([json.dumps(r) for r in _VALID]).flatmap(
        lambda text: st.integers(1, len(text) - 1).map(
            lambda cut: ("error", text[:cut]))),
    st.sampled_from(('[1, 2]', '"a!"', "3", "null", "true")).map(
        lambda text: ("error", text)),
    st.tuples(st.sampled_from(_UNPARSABLE + _OPEN), st.booleans()).map(
        lambda t: ("error", json.dumps({"p": t[0], "q": "a!"} if t[1]
                                       else {"p": "a!", "q": t[0]}))),
    # Random text is almost never a valid request; either answer will do.
    _printable.filter(lambda t: t.strip() and not t.strip().startswith("#"))
    .map(lambda text: ("any", text)),
)


class TestOneRequestLoop:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_request_line, min_size=1, max_size=8))
    def test_serve_and_batch_answer_every_line_alike(self, drawn):
        import contextlib
        import tempfile

        from repro.__main__ import main
        kinds = [kind for kind, _ in drawn]
        text = "".join(line + "\n" for _, line in drawn)
        with tempfile.TemporaryDirectory() as tmp:
            requests = Path(tmp) / "requests.jsonl"
            requests.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            stdin = sys.stdin
            sys.stdin = io.StringIO(text)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    assert main(["serve"]) == 0
            finally:
                sys.stdin = stdin
            served = [json.loads(ln) for ln in out.getvalue().splitlines()]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                status = main(["batch", str(requests), "--format", "json"])
            batched = json.loads(out.getvalue())["results"]
        assert len(served) == len(batched) == len(drawn)
        for lineno, (kind, s, b) in enumerate(
                zip(kinds, served, batched), start=1):
            for answer in (s, b):
                if "error" in answer:
                    assert kind != "verdict", answer
                    assert answer["line"] == lineno
                else:
                    assert kind != "error", answer
            assert s.get("truth") == b.get("truth")
        definite = all(a.get("truth") in ("true", "false") for a in batched)
        assert status == (0 if definite else 2)
