"""CBS — Prasad's Calculus of Broadcasting Systems (the paper's ancestor).

CBS broadcasts *values* on a single, implicit, global medium ("the
ether"); there are no channels, no name creation, no mobility — which is
exactly the limitation the bpi-calculus removes (Sections 1/6: CBS "does
not allow to model reconfigurable finer topologies", and dynamic groups
are inexpressible because scoping is static).

Implemented here:

* a small CBS AST over a finite value alphabet: ``O``, ``v! p``, ``x? p``,
  ``p + q``, ``p | q``, ``rec X. p``;
* its LTS — speak ``v!``, hear ``v?``, discard ``v:`` — with the broadcast
  composition rule (one speaker, everyone else hears or discards);
* strong bisimilarity via the shared partition machinery (labels are from
  the finite alphabet, so plain refinement applies);
* the *ether translation* into the bpi-calculus: one global channel ``e``
  carries the values (as names) — every CBS process is a bpi process that
  never uses mobility.  The correspondence (the translation is a strong
  operational bisimulation) is property-tested in the suite, exhibiting
  bpi as a conservative extension of CBS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from ..core.builder import call, define
from ..core.syntax import NIL as BPI_NIL
from ..core.syntax import Input as BpiInput
from ..core.syntax import Output as BpiOutput
from ..core.syntax import Par as BpiPar
from ..core.syntax import Process as BpiProcess
from ..core.syntax import Sum as BpiSum

#: The bpi channel standing for CBS's global ether.
ETHER = "ether"


class CbsProcess:
    """Base class of CBS terms (immutable, hashable)."""

    __slots__ = ()

    def __or__(self, other: "CbsProcess") -> "CbsProcess":
        return CbsPar(self, other)

    def __add__(self, other: "CbsProcess") -> "CbsProcess":
        return CbsSum(self, other)


@dataclass(frozen=True)
class CbsNil(CbsProcess):
    """``O`` — the inert process."""

    def __str__(self) -> str:
        return "O"


NIL = CbsNil()


@dataclass(frozen=True)
class Speak(CbsProcess):
    """``v! p`` — broadcast value v, continue as p."""

    value: str
    cont: CbsProcess = NIL

    def __str__(self) -> str:
        return f"{self.value}!({self.cont})"


@dataclass(frozen=True)
class Hear(CbsProcess):
    """``x? p`` — receive any value into x (x is a pattern variable)."""

    var: str
    cont: CbsProcess = NIL

    def __str__(self) -> str:
        return f"{self.var}?({self.cont})"


@dataclass(frozen=True)
class CbsSum(CbsProcess):
    left: CbsProcess
    right: CbsProcess

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class CbsPar(CbsProcess):
    left: CbsProcess
    right: CbsProcess

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class CbsRec(CbsProcess):
    """``rec X. p`` — X must be guarded in p."""

    ident: str
    body: CbsProcess

    def __str__(self) -> str:
        return f"rec {self.ident}. {self.body}"


@dataclass(frozen=True)
class CbsVar(CbsProcess):
    """An occurrence of a rec-bound identifier."""

    ident: str

    def __str__(self) -> str:
        return self.ident


def substitute_value(p: CbsProcess, var: str, value: str) -> CbsProcess:
    """Replace the pattern variable *var* by a received *value*.

    Values and variables share a namespace (as in value-passing CCS/CBS);
    a ``Speak`` of a variable broadcasts whatever was received.
    """
    if isinstance(p, CbsNil) or isinstance(p, CbsVar):
        return p
    if isinstance(p, Speak):
        v = value if p.value == var else p.value
        return Speak(v, substitute_value(p.cont, var, value))
    if isinstance(p, Hear):
        if p.var == var:  # shadowed
            return p
        return Hear(p.var, substitute_value(p.cont, var, value))
    if isinstance(p, CbsSum):
        return CbsSum(substitute_value(p.left, var, value),
                      substitute_value(p.right, var, value))
    if isinstance(p, CbsPar):
        return CbsPar(substitute_value(p.left, var, value),
                      substitute_value(p.right, var, value))
    if isinstance(p, CbsRec):
        return CbsRec(p.ident, substitute_value(p.body, var, value))
    raise TypeError(type(p).__name__)


def unfold(p: CbsRec) -> CbsProcess:
    def replace(q: CbsProcess) -> CbsProcess:
        if isinstance(q, CbsVar):
            return p if q.ident == p.ident else q
        if isinstance(q, (CbsNil,)):
            return q
        if isinstance(q, Speak):
            return Speak(q.value, replace(q.cont))
        if isinstance(q, Hear):
            return Hear(q.var, replace(q.cont))
        if isinstance(q, CbsSum):
            return CbsSum(replace(q.left), replace(q.right))
        if isinstance(q, CbsPar):
            return CbsPar(replace(q.left), replace(q.right))
        if isinstance(q, CbsRec):
            return q if q.ident == p.ident else CbsRec(q.ident, replace(q.body))
        raise TypeError(type(q).__name__)

    return replace(p.body)


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def speaks(p: CbsProcess) -> tuple[tuple[str, CbsProcess], ...]:
    """All ``p -v!-> p'``."""
    if isinstance(p, (CbsNil, Hear, CbsVar)):
        return ()
    if isinstance(p, Speak):
        return ((p.value, p.cont),)
    if isinstance(p, CbsSum):
        return speaks(p.left) + speaks(p.right)
    if isinstance(p, CbsRec):
        return speaks(unfold(p))
    if isinstance(p, CbsPar):
        out = []
        for v, l2 in speaks(p.left):
            for r2 in hears_or_stays(p.right, v):
                out.append((v, CbsPar(l2, r2)))
        for v, r2 in speaks(p.right):
            for l2 in hears_or_stays(p.left, v):
                out.append((v, CbsPar(l2, r2)))
        return tuple(out)
    raise TypeError(type(p).__name__)


@lru_cache(maxsize=65536)
def hears(p: CbsProcess, v: str) -> tuple[CbsProcess, ...]:
    """All ``p -v?-> p'`` (a hearing process cannot refuse)."""
    if isinstance(p, (CbsNil, Speak, CbsVar)):
        return ()
    if isinstance(p, Hear):
        return (substitute_value(p.cont, p.var, v),)
    if isinstance(p, CbsSum):
        return hears(p.left, v) + hears(p.right, v)
    if isinstance(p, CbsRec):
        return hears(unfold(p), v)
    if isinstance(p, CbsPar):
        ls, rs = hears(p.left, v), hears(p.right, v)
        l_deaf, r_deaf = not ls, not rs
        if l_deaf and r_deaf:
            return ()
        if l_deaf:
            return tuple(CbsPar(p.left, r) for r in rs)
        if r_deaf:
            return tuple(CbsPar(l, p.right) for l in ls)
        return tuple(CbsPar(l, r) for l in ls for r in rs)
    raise TypeError(type(p).__name__)


def discards(p: CbsProcess, v: str) -> bool:
    """``p -v:-> p`` — in CBS a process discards v iff it cannot hear.

    (Every CBS process is listening to the single ether or not; with one
    medium the dichotomy is simply 'has no hear-derivative'.)
    """
    return not hears(p, v)


def hears_or_stays(p: CbsProcess, v: str) -> tuple[CbsProcess, ...]:
    got = hears(p, v)
    return got if got else (p,)


def alphabet(p: CbsProcess) -> frozenset[str]:
    """Values spoken anywhere in *p* (the finite instantiation alphabet)."""
    if isinstance(p, (CbsNil, CbsVar)):
        return frozenset()
    if isinstance(p, Speak):
        return alphabet(p.cont) | {p.value}
    if isinstance(p, Hear):
        return alphabet(p.cont) - {p.var}
    if isinstance(p, (CbsSum, CbsPar)):
        return alphabet(p.left) | alphabet(p.right)
    if isinstance(p, CbsRec):
        return alphabet(p.body)
    raise TypeError(type(p).__name__)


def cbs_transitions(p: CbsProcess, values: frozenset[str],
                    noisy: bool = False) -> Iterator[tuple[str, CbsProcess]]:
    """Full labelled transitions over a value alphabet: ``v!`` and ``v?``.

    With *noisy* the discard ``v:`` appears as a ``v?`` self-loop — CBS's
    bisimilarity (like bpi's Definition 7/8) matches a reception against a
    reception *or a discard*, and the self-loop encodes exactly that for
    partition refinement.
    """
    for v, q in speaks(p):
        yield (f"{v}!", q)
    for v in sorted(values):
        heard = hears(p, v)
        for q in heard:
            yield (f"{v}?", q)
        if noisy and not heard:
            yield (f"{v}?", p)


def cbs_bisimilar(p: CbsProcess, q: CbsProcess, *, noisy: bool = True,
                  budget=None):
    """Strong bisimilarity of CBS terms via explicit LTS + refinement.

    ``noisy=True`` (the CBS notion): hearing may be answered by a discard,
    so ``x?O ~ O`` — receiving and ignoring is invisible, just as in bpi.
    ``noisy=False`` matches hear-labels strictly (the ~+-style relation).
    Returns a three-valued :class:`~repro.engine.Verdict`.
    """
    from collections import deque

    from ..engine.budget import Budget, BudgetExceeded, resolve_meter
    from ..engine.verdict import Verdict

    meter = resolve_meter(budget, Budget(max_states=20_000))

    values = alphabet(p) | alphabet(q) | {"_w"}
    states: list[CbsProcess] = []
    index: dict[CbsProcess, int] = {}
    edges: list[list[tuple[str, int]]] = []

    def intern(r: CbsProcess) -> tuple[int, bool]:
        sid = index.get(r)
        if sid is not None:
            return sid, False
        meter.charge()
        index[r] = sid = len(states)
        states.append(r)
        edges.append([])
        return sid, True

    try:
        queue: deque[int] = deque()
        roots = []
        for r in (p, q):
            sid, fresh = intern(r)
            roots.append(sid)
            if fresh:
                queue.append(sid)
        while queue:
            sid = queue.popleft()
            for label, target in cbs_transitions(states[sid], values,
                                                 noisy=noisy):
                tid, fresh = intern(target)
                edges[sid].append((label, tid))
                if fresh:
                    queue.append(tid)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)

    labels = sorted({lab for es in edges for lab, _ in es})
    n = len(states)
    # encode labelled refinement by iterating the per-label signatures
    block = [0] * n
    while True:
        signatures: dict[tuple, int] = {}
        new_block = [0] * n
        for s in range(n):
            sig = (block[s], tuple(
                frozenset(block[t] for lab2, t in edges[s] if lab2 == lab)
                for lab in labels))
            new_block[s] = signatures.setdefault(sig, len(signatures))
        if new_block == block:
            break
        block = new_block
    return Verdict.of(block[roots[0]] == block[roots[1]],
                      stats=meter.stats())


# ---------------------------------------------------------------------------
# The ether translation into bpi
# ---------------------------------------------------------------------------

def to_bpi(p: CbsProcess, ether: str = ETHER) -> BpiProcess:
    """Translate a CBS term to a bpi term over one global channel.

    ``v! p`` becomes ``ether<v>.[p]``; ``x? p`` becomes ``ether(x).[p]``;
    everything else is homomorphic.  The translation is a strong
    operational correspondence (tested): speak steps map to broadcasts on
    the ether, hear steps to receptions.
    """
    counter = [0]

    def tr(q: CbsProcess, env: dict[str, str]) -> BpiProcess:
        if isinstance(q, CbsNil):
            return BPI_NIL
        if isinstance(q, Speak):
            return BpiOutput(ether, (q.value,), tr(q.cont, env))
        if isinstance(q, Hear):
            return BpiInput(ether, (q.var,), tr(q.cont, env))
        if isinstance(q, CbsSum):
            return BpiSum(tr(q.left, env), tr(q.right, env))
        if isinstance(q, CbsPar):
            return BpiPar(tr(q.left, env), tr(q.right, env))
        if isinstance(q, CbsVar):
            ident = env.get(q.ident)
            if ident is None:
                raise ValueError(f"unbound CBS identifier {q.ident!r}")
            return call(ident, ether)
        if isinstance(q, CbsRec):
            counter[0] += 1
            ident = f"CBS{counter[0]}_{q.ident}"
            inner_env = dict(env)
            inner_env[q.ident] = ident
            body = tr(q.body, inner_env)
            # Value literals act as global constants: the recursion is
            # parameterised only over the ether channel.
            definition = define(ident, (ether,), lambda _e: body,
                                constants=tuple(sorted(alphabet(q))))
            return definition(ether)
        raise TypeError(type(q).__name__)

    return tr(p, {})
