"""Pinned outputs of ``canonical_state`` and the explorations it keys.

State identity in every exploration is ``canonical_state``: its component
order, its spine and its binder names decide the state list, the edge
list and every store key.  The component orders were pinned before the
sub-spine memo of ``core/canonical.py`` existed, so a memo that changes
any output (or makes it depend on the hash seed) fails here.  The
binder names are those of the per-component numbering: each component
numbers its own binders from ``_v0``, and hoisted restrictions are
``_h0``, ``_h1``, ...; every state list and graph kept its order and
shape when that numbering replaced the whole-state one.

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
     "ceb4b138a1aa70f72b7e9db51af7136c526b902c50af1f47c8d11b991eb9ed6e"),
    ("nu a (a<v> | a(x0).tau.r0<x0> | a(x1).tau.r1<x1> | a(x2).tau.r2<x2>"
     " | a(x3).tau.r3<x3>)", "bpi",
     "9916494fcf07a6c4d05092a45310a9c8b74795aba7a6c1a6ec6ecffdc8df1e7c"),
    ("nu tok c0<tok> | c0(t).c1<t> | c1(t).c2<t> | c2(t).c3<t>"
     " | c3(t).c0<t>", "bpi",
     "43e498d6fbc74e50281fbd4e94f82e4015d0560a55d35e83b2827f7f0c0d1652"),
    ("a<v> | a(x0).r0<x0> | a(x1).r1<x1> | a(x2).r2<x2> | a(x3).r3<x3>",
     "lossy",
     "ff9068a6b6dd7942d1fb4adaba037d026bd51aacf91631d14c23eb451d505ee5"),
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
     "nu _h0 (a?._h0! | b?.c! | a! | _h0!)",
     "nu _h0 (a?._h0! | b?.c! | a! | _h0!)"),
    # a match that resolves to a composition with a binder inside
    ("[a=a]{b! | nu x (x! | c<x>)}{0} | a! | [a=b]{c!}{c! | 0}",
     "nu _h0 (a! | c<_h0> | _h0! | b! | c!)",
     "nu _h0 (a! | c<_h0> | _h0! | b! | c!)"),
    # a sum that normalizes to a composition
    ("(b! | a!) + 0 | c?", "c? | a! | b!", "c? | a! | b!"),
    # duplicate components, and duplicate garbage once privates move in
    ("a! | b?.c! | a! | b?.c! | nu x x! | nu y y! | nu z (z! | a<z>)",
     "nu _h0 (b?.c! | b?.c! | a! | a! | _h0! | a<_h0> | nu _v0 _v0!"
     " | nu _v0 _v0!)",
     "nu _h0 (b?.c! | a! | _h0! | a<_h0> | nu _v0 _v0!)"),
    # the same binder-free sub-spine standalone and beside a binder
    ("(a! | b?.c!) | nu a (a?.c! | a!)",
     "nu _h0 (_h0?.c! | b?.c! | a! | _h0!)",
     "nu _h0 (_h0?.c! | b?.c! | a! | _h0!)"),
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
