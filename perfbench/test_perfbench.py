"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They pin what the numbers rest on: a seed fixes the request stream, the
oracle's answers hold on the smallest member of every family, the
self-time arithmetic is right, and a traced run leaves no wrapper behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import repro  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def stream(workload: str, seed: int, rounds: int = 3) -> bytes:
    reqs = [r for i in range(rounds)
            for r in workloads.ROUNDS[workload](seed, i)]
    return repr(reqs).encode()


# -- seeded streams -----------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_stream_other_seed_other_stream(workload):
    assert stream(workload, 7) == stream(workload, 7)
    assert stream(workload, 7) != stream(workload, 8)


def test_stream_does_not_depend_on_the_hash_seed():
    code = ("import hashlib, sys; sys.path[:0] = [sys.argv[1]]; "
            "import test_perfbench as t; "
            "print(hashlib.sha256(b''.join(t.stream(w, 3) for w in "
            "t.run.WORKLOADS)).hexdigest())")
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code, str(HERE)],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        digests.add(out.stdout.strip())
    local = hashlib.sha256(b"".join(stream(w, 3) for w in run.WORKLOADS))
    assert digests == {local.hexdigest()}


def composition(reqs):
    """What a round asks, with spellings and order left out."""
    asks = sorted((r.kind, r.family, str(r.answer), r.states)
                  for r in reqs if r.pair < 0)
    pairs = sorted({r.pair: (r.family, r.states) for r in reqs
                    if r.pair >= 0}.values())
    repeats = sorted(Counter(r.pair for r in reqs
                             if r.pair >= 0 and r.cap is None).values())
    caps = sorted(Counter(str(r.cap) for r in reqs).items())
    return asks, pairs, repeats, caps


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_rounds_keep_their_composition(workload):
    """The seed moves spellings, order and which pair repeats how often,
    never what a round asks."""
    shapes = {repr(composition(workloads.ROUNDS[workload](seed, 0)))
              for seed in (1, 2, 3)}
    assert len(shapes) == 1


# -- the oracle on the smallest member of each family -------------------------

SP = {"chan": "a", "val": "v", "reply": "r", "wrong": "w", "idle": "b",
      "other": "o", "absent": "zz9", "binder": "x"}


@pytest.mark.parametrize("kind,calculus,states", [
    ("star", None, 3),       # a<v> | a(x0).r0<x0>: start, received, replied
    ("star", "lossy", 4),    # ... or the message was lost
    ("relay", None, 4),      # start, received, relayed (tau), replied
    ("ring", None, 3),       # token at c0, token taken, token passed on
])
def test_smallest_terms_have_the_hand_counted_states(kind, calculus, states):
    src, formula = workloads.build(kind, 1, SP, random.Random(0), calculus)
    assert formula == states
    assert repro.explore(src, calculus=calculus).n_states == states


def test_smallest_reach_queries():
    src = workloads.star(1, SP, random.Random(0))
    assert repro.reach(src, "r0").is_true
    refuted = repro.reach(src, "zz9")
    assert refuted.is_false and refuted.stats.get("presolve") == "flow"


@pytest.mark.parametrize("family,answer", [
    ("star-idle", True), ("star-wrong", False), ("relay-wrong", False),
    ("relay-idle", True), ("ab", False), ("respell-star", True),
    ("respell-relay", True), ("respell-ring", True),
])
def test_smallest_pairs_have_the_hand_written_answer(family, answer):
    _, weak, relations = workloads.FAMILIES[family]
    for relation in relations:
        spec = workloads.PairSpec(family, 1, relation, dict(SP))
        assert spec.answer is answer
        p, q, _ = spec.render(random.Random(0))
        verdict = repro.check(p, q, relation=relation, weak=weak)
        assert verdict.is_definite and bool(verdict) is answer, relation


def test_a_family_is_never_asked_where_its_law_is_silent():
    spec = workloads.PairSpec("star-wrong", 1, "barbed", dict(SP))
    with pytest.raises(ValueError):
        spec.render(random.Random(0))


# -- spans --------------------------------------------------------------------

def synthetic(rows):
    rec = spans.Recorder(["request", "core.canonical", "core.substitution"])
    for layer, parent, start, end in rows:
        rec.layer.append(layer)
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    return rec


def test_self_time_is_duration_minus_children():
    rec = synthetic([
        (0, -1, 0.0, 10.0),   # request
        (1, 0, 1.0, 4.0),     # canonical
        (2, 1, 2.0, 3.0),     # substitution inside canonical
        (2, 0, 5.0, 9.0),     # substitution
        (1, -1, 11.0, 12.0),  # canonical outside any request
    ])
    assert list(rec.self_times()) == [3.0, 2.0, 1.0, 4.0, 1.0]
    summary = rec.summary(roots=("request",))
    assert summary["request"] == {"calls": 1, "self_s": 3.0}
    assert summary["core.canonical"] == {"calls": 1, "self_s": 2.0}
    assert summary["core.substitution"] == {"calls": 2, "self_s": 5.0}


def test_wrapper_opens_no_span_inside_its_own_layer():
    rec = spans.Recorder(["request", "core.canonical"])

    def inner() -> int:
        return 1

    wrapped_inner = rec._wrap(1, inner, "inner")
    outer = rec._wrap(1, lambda: wrapped_inner() + 1, "outer")
    assert rec.wrap_call("request", outer)() == 2
    assert list(rec.layer) == [0, 1]
    assert list(rec.parent) == [-1, 0]


def bindings() -> dict[tuple[str, str], int]:
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(mod).items()):
                snap[(name, attr)] = id(value)
                if isinstance(value, type):
                    for cattr, cval in list(vars(value).items()):
                        snap[(f"{name}.{attr}", cattr)] = id(cval)
    return snap


def test_traced_run_restores_every_binding(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    rec = spans.Recorder()
    rec.install()  # imports every module, so the snapshot sees them all
    rec.uninstall()
    before = bindings()
    rec = spans.Recorder()
    rec.install()
    assert bindings() != before
    rec.uninstall()
    assert bindings() == before
    res = run.traced("store-mixed", 1, 0.01)
    assert res["correct"] and res["failed"] == 0
    assert bindings() == before
    assert (tmp_path / "spans-store-mixed.bin").is_file()


def test_benchmark_json_names_what_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.PER_LAYER
