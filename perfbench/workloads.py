"""Seeded request streams with answers fixed by construction.

Every request carries the answer its construction fixes: a closed-form
state count for an exploration, a barb the term visibly offers (or a
channel it never mentions) for a reachability query, and a law or an
observable mutation for an equivalence pair.  The checker under test is
never consulted to decide what the right answer is.

Terms are emitted as bpi source text, so the program only ever sees
generated text (``explore-cold``) or JSON request lines (``check-stream``,
``store-mixed``).  The seed picks spellings -- channel names, binder
names, the order of parallel components and of sum operands -- and the
order of requests.  The *composition* of a round (families, sizes,
relations, repetition counts) is fixed, so the cost of a round barely
depends on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any

#: Spellings a generated free name may take; none is a keyword of the
#: grammar (``tau``, ``nu``, ``nil``, ``rec``).
_NAME_POOL = ("a", "b", "c", "d", "e", "f", "g", "h", "k", "m", "p", "q",
              "s", "u", "w", "y", "ch", "lnk", "bus", "sig", "req", "ack",
              "msg", "out", "evt", "net")
_BINDERS = ("x", "z", "v", "t", "arg", "in")

#: The cap a *starved* store-mixed request carries.  Only pairs whose
#: search charges far more than this get one, so it always trips.
STARVED_CAP = 1
#: The cap a *generous* store-mixed request carries: above every floor
#: the pool records, so a decided row always serves it.
GENEROUS_CAP = 100_000


@dataclass(frozen=True)
class Request:
    """One request and its known answer.

    ``kind`` is ``"explore"`` (``answer``: the state count), ``"reach"``
    (``answer``: bool) or ``"check"`` (``answer``: bool; ``line`` is the
    JSON request).  ``states`` is the closed-form state count of the
    terms the request names, summed over both sides of a pair.
    ``pair`` identifies the distinct pair a check repeats (store-mixed)
    and ``cap`` its ``max_states``, if any.
    """

    kind: str
    family: str
    answer: Any
    states: int
    src: str = ""
    chan: str = ""
    calculus: str | None = None
    line: str = ""
    pair: int = -1
    cap: int | None = None


# -- term builders (source text) ---------------------------------------------

def spelling(rng: random.Random) -> dict[str, str]:
    """One spelling of every role a builder names, all pairwise distinct."""
    free = list(_NAME_POOL)
    rng.shuffle(free)
    roles = ("chan", "val", "reply", "wrong", "idle", "other")
    sp = {role: free.pop() for role in roles}
    sp["absent"] = free.pop() + "9"
    sp["binder"] = rng.choice(_BINDERS)
    return sp


def respell(sp: dict[str, str], rng: random.Random) -> dict[str, str]:
    """The same free names under another binder name (alpha-renaming)."""
    return dict(sp, binder=rng.choice(
        [b for b in _BINDERS if b != sp["binder"]]))


def _join(parts: list[str], rng: random.Random, sep: str = " | ") -> str:
    parts = list(parts)
    rng.shuffle(parts)
    return sep.join(parts)


def star(n: int, sp: dict[str, str], rng: random.Random, *,
         wrong: bool = False) -> str:
    """``broadcast_star(n)``: one sender, *n* receivers that reply.

    With *wrong*, receiver 0 replies on ``sp["wrong"]`` instead of its own
    reply channel: an observable mutation two steps deep.
    """
    c, b = sp["chan"], sp["binder"]
    parts = [f"{c}<{sp['val']}>"]
    for i in range(n):
        reply = sp["wrong"] if wrong and i == 0 else f"{sp['reply']}{i}"
        parts.append(f"{c}({b}{i}).{reply}<{b}{i}>")
    return _join(parts, rng)


def relay(n: int, sp: dict[str, str], rng: random.Random, *,
          wrong: bool = False) -> str:
    """``relay_star(n)``: a hidden star whose receivers reply after a tau."""
    c, b = sp["chan"], sp["binder"]
    parts = [f"{c}<{sp['val']}>"]
    for i in range(n):
        reply = sp["wrong"] if wrong and i == 0 else f"{sp['reply']}{i}"
        parts.append(f"{c}({b}{i}).tau.{reply}<{b}{i}>")
    return f"nu {c} ({_join(parts, rng)})"


def ring(n: int, sp: dict[str, str], rng: random.Random) -> str:
    """``token_ring(n)``: a private token passed round *n* hops."""
    c, b, tok = sp["reply"], sp["binder"], sp["chan"]
    parts = [f"(nu {tok} {c}0<{tok}>)"]
    parts += [f"{c}{i}({b}).{c}{(i + 1) % n}<{b}>" for i in range(n)]
    return _join(parts, rng)


def idle(sp: dict[str, str]) -> str:
    """A listener on a private channel nobody sends on: inert."""
    b = sp["binder"] + "w"
    return f"nu {sp['idle']} ({sp['idle']}({b}).{sp['wrong']}<{b}>)"


def pad(src: str, sp: dict[str, str]) -> str:
    """Structural padding: a ``0`` component and an unused restriction."""
    return f"nu {sp['other']} ({src} | 0)"


def build(kind: str, n: int, sp: dict[str, str], rng: random.Random,
          calculus: str | None = None, *, wrong: bool = False,
          ) -> tuple[str, int]:
    """Source text of a *kind* term and its closed-form state count.

    ``broadcast_star(n)`` has 2^n+1 states under ``bpi`` (each receiver
    has or has not replied) and 3^n+1 under ``lossy`` (a receiver may
    also have lost the message); ``relay_star(n)`` has 3^n+1 (waiting,
    relaying, replied); ``token_ring(n)`` has n+2.
    """
    if kind == "star":
        return (star(n, sp, rng, wrong=wrong),
                (3 ** n if calculus == "lossy" else 2 ** n) + 1)
    if kind == "relay":
        return relay(n, sp, rng, wrong=wrong), 3 ** n + 1
    if kind == "ring":
        return ring(n, sp, rng), n + 2
    raise ValueError(f"unknown term kind {kind!r}")


# -- explore-cold -------------------------------------------------------------

#: (term, size, calculus) explored per round.  The sizes span two orders
#: of magnitude of state count, so ``states_per_s`` is carried by the
#: big explorations while ``request_p50_s`` sees the small ones.  The
#: four ``broadcast_star(10)`` explorations are the costliest requests
#: by a margin and the three ``token_ring(16)`` ones sit mid-way, so the
#: 90th percentile and the median fall inside runs of like requests
#: instead of on the edge between two unlike ones.
EXPLORES = ([("star", n, None) for n in (6, 7, 8, 9, 10, 10, 10, 10)]
            + [("star", n, "lossy") for n in (4, 5, 5)]
            + [("relay", n, None) for n in (4, 5, 5)]
            + [("ring", n, None) for n in (8, 16, 16, 16, 32)])

#: (term, size, calculus, reachable) reachability queries per round.
#: Reachable targets are reply barbs the term offers after a few steps;
#: unreachable ones are channels absent from the term, which the flow
#: pre-solver refutes without exploring.
REACHES = ([("star", 7, None, True), ("star", 9, None, True),
            ("star", 5, "lossy", True), ("relay", 5, None, True),
            ("ring", 16, None, True)]
           + [("star", 10, None, False), ("star", 6, "lossy", False),
              ("relay", 6, None, False), ("ring", 32, None, False)])


def explore_round(seed: int, index: int) -> list[Request]:
    """Round *index* of ``explore-cold``: explorations and reach queries."""
    rng = random.Random(f"explore-cold:{seed}:{index}")
    out: list[Request] = []
    for kind, n, calculus in EXPLORES:
        src, states = build(kind, n, spelling(rng), rng, calculus)
        out.append(Request("explore", f"{kind}-{calculus or 'bpi'}",
                           states, states, src=src, calculus=calculus))
    for kind, n, calculus, reachable in REACHES:
        sp = spelling(rng)
        src, states = build(kind, n, sp, rng, calculus)
        chan = f"{sp['reply']}{n - 1}" if reachable else sp["absent"]
        out.append(Request("reach", f"{kind}-{calculus or 'bpi'}",
                           reachable, states, src=src, chan=chan,
                           calculus=calculus))
    rng.shuffle(out)
    return out


# -- equivalence pairs --------------------------------------------------------

#: family -> (answer, weak, relations whose law fixes the answer).
#: Strong barbed bisimilarity only watches tau steps and barbs, so it
#: cannot see a mutation behind a broadcast on a free channel: the
#: ``star-wrong`` and ``ab`` families are not asked under ``barbed``.
FAMILIES: dict[str, tuple[bool, bool, tuple[str, ...]]] = {
    # P ~ P | (inert restricted listener)
    "star-idle": (True, False, ("labelled", "barbed", "step")),
    # receiver 0 replies on the wrong channel
    "star-wrong": (False, False, ("labelled", "step")),
    "relay-wrong": (False, True, ("labelled", "barbed", "step")),
    "relay-idle": (True, True, ("labelled", "barbed", "step")),
    # a.(b+c) vs a.b+a.c (paper section 6)
    "ab": (False, False, ("labelled", "step")),
    # permuted components, alpha-renamed binders, P | 0, unused nu
    "respell-star": (True, False, ("labelled", "barbed", "step")),
    "respell-relay": (True, True, ("labelled", "barbed", "step")),
    "respell-ring": (True, False, ("labelled", "barbed", "step")),
}


@dataclass
class PairSpec:
    """A distinct pair: its family, size, relation and free names.

    :meth:`render` spells it afresh each time -- new component order, new
    binder names -- so repeats are congruent respellings of one pair.
    """

    family: str
    n: int
    relation: str
    sp: dict[str, str] = field(default_factory=dict)

    @property
    def answer(self) -> bool:
        return FAMILIES[self.family][0]

    @property
    def weak(self) -> bool:
        return FAMILIES[self.family][1]

    def render(self, rng: random.Random) -> tuple[str, str, int]:
        """``(p, q, states)`` spelled with *rng*."""
        if self.relation not in FAMILIES[self.family][2]:
            raise ValueError(f"{self.family} has no known answer under "
                             f"{self.relation}")
        sp, n, fam = respell(self.sp, rng), self.n, self.family
        if fam == "ab":
            # Only the top-level sum is reordered: canonical forms (and so
            # store keys) leave the structure under a prefix as written.
            a, b, c = sp["chan"], sp["reply"], sp["val"]
            return (f"{a}!.({b}! + {c}!)",
                    _join([f"{a}!.{b}!", f"{a}!.{c}!"], rng, " + "), 3 + 4)
        if fam.startswith("respell-"):
            kind = fam.split("-", 1)[1]
            p, states = build(kind, n, sp, rng)
            q, _ = build(kind, n, respell(sp, rng), rng)
            return p, pad(q, sp), 2 * states
        kind = fam.split("-", 1)[0]
        p, states = build(kind, n, sp, rng)
        if fam.endswith("-wrong"):
            q, _ = build(kind, n, respell(sp, rng), rng, wrong=True)
        else:
            q, _ = build(kind, n, respell(sp, rng), rng)
            q = f"{q} | {idle(sp)}"
        return p, q, 2 * states

    def request(self, rng: random.Random, *, pair: int = -1,
                cap: int | None = None) -> Request:
        p, q, states = self.render(rng)
        rec: dict[str, Any] = {"p": p, "q": q, "relation": self.relation,
                               "weak": self.weak}
        if cap is not None:
            rec["max_states"] = cap
        return Request("check", f"{self.family}/{self.relation}",
                       self.answer, states, line=json.dumps(rec),
                       pair=pair, cap=cap)


def _pairs(rng: random.Random,
           table: list[tuple[str, tuple[int, ...], str]]) -> list[PairSpec]:
    return [PairSpec(fam, n, rel, spelling(rng))
            for fam, sizes, rel in table for n in sizes]


# -- check-stream -------------------------------------------------------------

#: (family, sizes, relation): the pool a live service keeps seeing.
#: relay4 weak labelled is the slow row ROADMAP item 5.2 names.  The
#: weak relay pairs' search order, and so their cost, depends on the
#: interpreter's hash seed (``relay-idle`` barbed n=4 took 11-42 ms over
#: PYTHONHASHSEED 0-5), while the star pairs charge the same on every
#: seed.  So the relay pairs appear once each, and the median and the
#: 90th percentile land inside runs of like star requests (``star-wrong``
#: labelled n=7, ``star-idle`` labelled n=7): a run's figures then move
#: with the program, not with the hash seed it drew.
CHECK_POOL = [
    ("star-idle", (3, 4, 5, 6, 6, 7, 7, 7, 7, 7, 7), "labelled"),
    ("star-idle", (5, 7), "step"),
    ("star-idle", (5, 7), "barbed"),
    ("star-wrong", (4, 6, 7, 7, 7, 7, 7, 7), "labelled"),
    ("star-wrong", (5, 7), "step"),
    ("relay-wrong", (2, 3, 4), "labelled"),
    ("relay-wrong", (3, 4), "barbed"),
    ("relay-wrong", (3, 4), "step"),
    ("relay-idle", (3,), "labelled"),
    ("relay-idle", (3,), "barbed"),
    ("relay-idle", (2,), "step"),
    ("ab", (0,), "labelled"),
    ("ab", (0,), "step"),
    ("respell-star", (6,), "labelled"),
    ("respell-star", (5,), "step"),
    ("respell-relay", (4,), "barbed"),
    ("respell-ring", (12,), "step"),
]


def check_pool(seed: int) -> list[Request]:
    """The ``check-stream`` pool: each pair once, spelled by *seed*."""
    rng = random.Random(f"check-stream:{seed}")
    return [spec.request(rng) for spec in _pairs(rng, CHECK_POOL)]


def check_round(seed: int, index: int) -> list[Request]:
    """Pass *index* over the pool, in an order drawn from *seed*."""
    pool = check_pool(seed)
    random.Random(f"check-stream:{seed}:{index}").shuffle(pool)
    return pool


# -- store-mixed --------------------------------------------------------------

#: The distinct pairs of a round and how often each is asked:
#: (family, size, relation, asks).  The first ask of a pair is a miss
#: (compute, then record), every later one a hit: 22 misses and 73 hits
#: per round, repeats skewed from 20 down to 1.  The 90th percentile
#: falls among the misses of the eight ``star-wrong`` labelled n=3 pairs
#: (like cost, the same charges on every hash seed); hits set the median.
STORE_POOL = [
    ("respell-star", 4, "labelled", 20),
    ("ab", 0, "labelled", 14),
    ("relay-wrong", 3, "barbed", 10),
    ("star-wrong", 3, "labelled", 7),
    ("respell-ring", 5, "step", 6),
    ("star-wrong", 3, "labelled", 5),
    ("relay-wrong", 3, "step", 4),
    ("star-wrong", 3, "labelled", 4),
    ("ab", 0, "step", 3),
    ("star-idle", 4, "barbed", 3),
    ("star-wrong", 3, "labelled", 3),
    ("star-idle", 3, "step", 2),
    ("respell-relay", 3, "barbed", 2),
    ("star-wrong", 3, "labelled", 2),
    ("relay-wrong", 3, "step", 2),
    ("star-idle", 2, "labelled", 2),
    ("respell-star", 3, "barbed", 1),
    ("relay-wrong", 2, "barbed", 1),
    ("star-wrong", 3, "labelled", 1),
    ("star-wrong", 3, "labelled", 1),
    ("star-wrong", 3, "labelled", 1),
    ("star-idle", 2, "labelled", 1),
]

#: Pairs of this (family, relation) also get two starved-cap asks each:
#: their searches charge 22 pairs on every hash seed, so a cap of 1
#: always trips.
STARVED = ("star-idle", "labelled")
#: How many pairs get one extra generous-cap ask.
GENEROUS = 4


def store_round(seed: int, index: int) -> list[Request]:
    """Round *index* of ``store-mixed``, answered against a fresh store."""
    rng = random.Random(f"store-mixed:{seed}:{index}")
    specs = [PairSpec(fam, n, rel, spelling(rng))
             for fam, n, rel, _ in STORE_POOL]
    asks: list[tuple[int, int | None]] = []
    for i, (fam, _, rel, count) in enumerate(STORE_POOL):
        asks += [(i, None)] * count
        if (fam, rel) == STARVED:
            asks += [(i, STARVED_CAP)] * 2
    asks += [(i, GENEROUS_CAP)
             for i in rng.sample(range(len(specs)), GENEROUS)]
    rng.shuffle(asks)
    return [specs[i].request(rng, pair=i, cap=cap) for i, cap in asks]


ROUNDS = {"explore-cold": explore_round, "check-stream": check_round,
          "store-mixed": store_round}
