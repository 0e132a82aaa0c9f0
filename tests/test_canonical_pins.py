"""Pinned outputs of ``canonical_state`` and the explorations it keys.

State identity in every exploration is ``canonical_state``: its component
order, its spine and its ``canonical_alpha`` numbering decide the state
list, the edge list and every store key.  These pins were taken before
the sub-spine memo of ``core/canonical.py`` existed, so a memo that
changes any output (or makes it depend on the hash seed) fails here.

Rows are checked in fresh interpreters under ``PYTHONHASHSEED`` 0, 1 and
random, like ``tests/test_store_codec.py::TestCrossProcessDigests``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

#: (source, calculus, sha256 of the ``build_step_lts`` state and edge
#: lists).  The sources are ``benchmarks.helpers.broadcast_star(5)``,
#: ``relay_star(4)``, ``token_ring(4)`` and ``broadcast_star(4)`` spelled
#: out, so a change to the helpers cannot move the pin.
EXPLORATION_PINS = [
    ("a<v> | a(x0).r0<x0> | a(x1).r1<x1> | a(x2).r2<x2> | a(x3).r3<x3>"
     " | a(x4).r4<x4>", "bpi",
     "07adc26a8eb09dc3b59fbd4ccb21e033bfade2391bc528b30a91670db39f4a49"),
    ("nu a (a<v> | a(x0).tau.r0<x0> | a(x1).tau.r1<x1> | a(x2).tau.r2<x2>"
     " | a(x3).tau.r3<x3>)", "bpi",
     "a3095689cc31783b919ea7d8ed33e13be2c97ebe0b01e39965219ea214f6ff56"),
    ("nu tok c0<tok> | c0(t).c1<t> | c1(t).c2<t> | c2(t).c3<t>"
     " | c3(t).c0<t>", "bpi",
     "2ac6a2952a21c8c5e29731e820e34b74378f9f0e3cd5c6296d77f2e2ada68f1e"),
    ("a<v> | a(x0).r0<x0> | a(x1).r1<x1> | a(x2).r2<x2> | a(x3).r3<x3>",
     "lossy",
     "1190e0715492c0145a91e70e7a1dda1499b807bc6e639a3f2f99a035797e5232"),
]

#: (source, ``canonical_state``, ``canonical_state_collapsed``), both
#: pretty-printed.
COMPOSITION_PINS = [
    # a nil component
    ("b?.c! | 0 | a! | 0", "b?.c! | a!", "b?.c! | a!"),
    # an unused restriction over a binder-free spine
    ("nu x (b! | a!) | c?", "c? | a! | b!", "c? | a! | b!"),
    # a restriction whose name clashes with a sibling's free name
    ("b?.c! | nu b (b! | a?.b!) | a!",
     "nu _v0 (a?._v0! | b?.c! | a! | _v0!)",
     "nu _v0 (a?._v0! | b?.c! | a! | _v0!)"),
    # a match that resolves to a composition with a binder inside
    ("[a=a]{b! | nu x (x! | c<x>)}{0} | a! | [a=b]{c!}{c! | 0}",
     "nu _v0 (a! | c<_v0> | _v0! | b! | c!)",
     "nu _v0 (a! | c<_v0> | _v0! | b! | c!)"),
    # a sum that normalizes to a composition
    ("(b! | a!) + 0 | c?", "c? | a! | b!", "c? | a! | b!"),
    # duplicate components, and duplicate garbage once privates move in
    ("a! | b?.c! | a! | b?.c! | nu x x! | nu y y! | nu z (z! | a<z>)",
     "nu _v0 (b?.c! | b?.c! | a! | a! | _v0! | a<_v0> | nu _v1 _v1!"
     " | nu _v2 _v2!)",
     "nu _v0 (b?.c! | a! | _v0! | a<_v0> | nu _v1 _v1!)"),
    # the same binder-free sub-spine standalone and beside a binder
    ("(a! | b?.c!) | nu a (a?.c! | a!)",
     "nu _v0 (_v0?.c! | b?.c! | a! | _v0!)",
     "nu _v0 (_v0?.c! | b?.c! | a! | _v0!)"),
]

_PIN_SCRIPT = """
import hashlib, json, sys
from repro.core.canonical import canonical_state, canonical_state_collapsed
from repro.core.parser import parse
from repro.core.pretty import pretty
from repro.lts.graph import build_step_lts
explorations, compositions = json.loads(sys.argv[1])
rows = []
for source, calculus in explorations:
    lts, root = build_step_lts(parse(source), calculus=calculus)
    h = hashlib.sha256(f"{root}\\n".encode())
    for state in lts.states:
        h.update(pretty(state).encode() + b"\\n")
    for sid, out in enumerate(lts.edges):
        for action, tid in out:
            h.update(f"{sid} {action} {tid}\\n".encode())
    rows.append(h.hexdigest())
for source in compositions:
    p = parse(source)
    rows.append([pretty(canonical_state(p)),
                 pretty(canonical_state_collapsed(p))])
print(json.dumps(rows))
"""


def _run_pins(hash_seed: str) -> list:
    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    args = [[[row[0], row[1]] for row in EXPLORATION_PINS],
            [row[0] for row in COMPOSITION_PINS]]
    result = subprocess.run(
        [sys.executable, "-c", _PIN_SCRIPT, json.dumps(args)],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout)


class TestCanonicalPins:
    @pytest.mark.parametrize("hash_seed", ["0", "1", "random"])
    def test_pinned_under_every_hash_seed(self, hash_seed):
        got = _run_pins(hash_seed)
        expected = [row[2] for row in EXPLORATION_PINS]
        expected += [list(row[1:]) for row in COMPOSITION_PINS]
        assert got == expected
