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
* the *ether translation* into the bpi-calculus: one global channel
  carries the values (as names) — every CBS process is a bpi process that
  never uses mobility.  The correspondence (the translation is a strong
  operational bisimulation: speak, hear and discard map to ether output,
  input and discard) is property-tested in the suite against the CBS
  judgements above, exhibiting bpi as a conservative extension of CBS;
* strong bisimilarity, decided as bpi strong bisimilarity (Definition 8)
  of the two ether images.  bpi's input clause answers a reception by a
  reception or a discard, which is CBS's noisy notion: ``x?O ~ O``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.names import fresh_name
from ..core.syntax import NIL as BPI_NIL
from ..core.syntax import Ident as BpiIdent
from ..core.syntax import Input as BpiInput
from ..core.syntax import Output as BpiOutput
from ..core.syntax import Par as BpiPar
from ..core.syntax import Process as BpiProcess
from ..core.syntax import Rec as BpiRec
from ..core.syntax import Sum as BpiSum
from ..engine.budget import Budget, Meter
from ..engine.verdict import Verdict

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
    a ``Speak`` of a variable broadcasts whatever was received.  The
    substitution is capture-avoiding: a hear variable named like *value*
    is renamed apart when *var* occurs under it.
    """
    if isinstance(p, CbsNil) or isinstance(p, CbsVar):
        return p
    if isinstance(p, Speak):
        v = value if p.value == var else p.value
        return Speak(v, substitute_value(p.cont, var, value))
    if isinstance(p, Hear):
        if p.var == var:  # shadowed
            return p
        if p.var == value and var in alphabet(p.cont):
            new = fresh_name(_names(p.cont) | {var, value}, hint=p.var)
            cont = substitute_value(p.cont, p.var, new)
            return Hear(new, substitute_value(cont, var, value))
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
    """``rec X. q`` unfolds to ``q[rec X. q / X]``, capture-avoiding: a
    hear variable that would bind a free value of the recursion (one of
    ``alphabet(p)``) is renamed apart before the recursion goes under it
    (``rec X. x!(x?(X))`` keeps speaking the literal ``x``)."""
    free = alphabet(p)

    def replace(q: CbsProcess) -> CbsProcess:
        if isinstance(q, CbsVar):
            return p if q.ident == p.ident else q
        if isinstance(q, (CbsNil,)):
            return q
        if isinstance(q, Speak):
            return Speak(q.value, replace(q.cont))
        if isinstance(q, Hear):
            if q.var in free and _mentions(q.cont, p.ident):
                new = fresh_name(_names(q.cont) | _names(p.body), hint=q.var)
                return Hear(new, replace(substitute_value(q.cont, q.var, new)))
            return Hear(q.var, replace(q.cont))
        if isinstance(q, CbsSum):
            return CbsSum(replace(q.left), replace(q.right))
        if isinstance(q, CbsPar):
            return CbsPar(replace(q.left), replace(q.right))
        if isinstance(q, CbsRec):
            return q if q.ident == p.ident else CbsRec(q.ident, replace(q.body))
        raise TypeError(type(q).__name__)

    return replace(p.body)


def _mentions(p: CbsProcess, ident: str) -> bool:
    """Does the identifier *ident* occur free in *p*?"""
    if isinstance(p, CbsVar):
        return p.ident == ident
    if isinstance(p, (Speak, Hear)):
        return _mentions(p.cont, ident)
    if isinstance(p, (CbsSum, CbsPar)):
        return _mentions(p.left, ident) or _mentions(p.right, ident)
    if isinstance(p, CbsRec):
        return p.ident != ident and _mentions(p.body, ident)
    return False


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# The ether translation into bpi
# ---------------------------------------------------------------------------

def _names(p: CbsProcess) -> frozenset[str]:
    """Every value and variable occurring in *p*, bound or free."""
    if isinstance(p, (CbsNil, CbsVar)):
        return frozenset()
    if isinstance(p, Speak):
        return _names(p.cont) | {p.value}
    if isinstance(p, Hear):
        return _names(p.cont) | {p.var}
    if isinstance(p, (CbsSum, CbsPar)):
        return _names(p.left) | _names(p.right)
    if isinstance(p, CbsRec):
        return _names(p.body)
    raise TypeError(type(p).__name__)


def to_bpi(p: CbsProcess, ether: str = ETHER) -> BpiProcess:
    """Translate a CBS term to a bpi term over one global channel.

    ``v! p`` becomes ``ether<v>.[p]``; ``x? p`` becomes ``ether(x).[p]``;
    ``rec X. p`` becomes ``(rec X(ether). [p])<ether>`` with value
    literals as global constants; everything else is homomorphic.  The
    translation is a strong operational correspondence (tested): speak
    steps map to broadcasts on the ether, hear steps to receptions.

    A ``rec`` nested in another may mention the enclosing identifier: the
    bpi ``rec`` keeps it free, and rule (11) substitutes the enclosing
    recursion when it unfolds, just as :func:`unfold` does.  Raises
    ``ValueError`` on a hear variable named *ether*, which would bind the
    channel, and on an unbound identifier.
    """

    def tr(q: CbsProcess, bound: frozenset[str]) -> BpiProcess:
        if isinstance(q, CbsNil):
            return BPI_NIL
        if isinstance(q, Speak):
            return BpiOutput(ether, (q.value,), tr(q.cont, bound))
        if isinstance(q, Hear):
            if q.var == ether:
                raise ValueError(
                    f"hear variable {q.var!r} would capture the ether channel")
            return BpiInput(ether, (q.var,), tr(q.cont, bound))
        if isinstance(q, CbsSum):
            return BpiSum(tr(q.left, bound), tr(q.right, bound))
        if isinstance(q, CbsPar):
            return BpiPar(tr(q.left, bound), tr(q.right, bound))
        if isinstance(q, CbsVar):
            if q.ident not in bound:
                raise ValueError(f"unbound CBS identifier {q.ident!r}")
            return BpiIdent(q.ident, (ether,))
        if isinstance(q, CbsRec):
            body = tr(q.body, bound | {q.ident})
            return BpiRec(q.ident, (ether,), body, (ether,))
        raise TypeError(type(q).__name__)

    return tr(p, frozenset())


def cbs_bisimilar(p: CbsProcess, q: CbsProcess, *,
                  budget: Budget | Meter | None = None) -> Verdict:
    """Strong bisimilarity of CBS terms: bpi strong bisimilarity of their
    ether images, both translated under one ether name fresh for every
    value and variable of *p* and *q*.

    Hearing may be answered by a discard, so ``x?O ~ O`` — receiving and
    ignoring is invisible, just as in bpi.  Returns a three-valued
    :class:`~repro.engine.Verdict`.
    """
    from ..equiv.labelled import strong_bisimilar

    ether = fresh_name(_names(p) | _names(q), hint=ETHER)
    return strong_bisimilar(to_bpi(p, ether), to_bpi(q, ether),
                            budget=budget)
