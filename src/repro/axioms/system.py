"""The axiom system A (Table 6), restriction axioms (Table 7), and the
expansion law (Table 8) as first-class, testable equation schemas.

Each schema is a function producing concrete ``(lhs, rhs)`` equation
instances from sample parameters.  Theorem 6 (soundness — every instance
is a strong congruence) is exercised by checking instances with both the
semantic checker and the syntactic decision procedure; Theorem 7
(completeness) by cross-validating the decision procedure itself.

The paper's distinctive axiom is **(H)** — the broadcast "noisy" law::

    if x not in fn(p) and, under phi, a is not in In(p):
        alpha.p = alpha.(p + phi a(x).p)

(receiving and ignoring is invisible *after a prefix*), which does not
hold in the pi-calculus and which fills the gap between ``~+`` and ``~``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..core.builder import nu
from ..core.freenames import free_names
from ..core.names import Name
from ..core.substitution import apply_subst
from ..core.syntax import (
    NIL,
    Input,
    Match,
    Output,
    Par,
    Process,
    Rec,
    Restrict,
    Sum,
    Tau,
)
from .conditions import Partition
from .nf import head_summands


@dataclass(frozen=True)
class Equation:
    """A named axiom instance ``lhs = rhs``."""

    law: str
    lhs: Process
    rhs: Process

    def __str__(self) -> str:
        return f"({self.law})  {self.lhs}  =  {self.rhs}"


Prefixer = Callable[[Process], Process]


def _sample_prefixes() -> list[tuple[str, Prefixer]]:
    return [
        ("tau", lambda p: Tau(p)),
        ("out", lambda p: Output("a", ("b",), p)),
        ("in", lambda p: Input("a", ("z",), p)),
    ]


# ---------------------------------------------------------------------------
# Table 6 — the core axiom system A
# ---------------------------------------------------------------------------

def axiom_S(p: Process, q: Process, r: Process) -> Iterator[Equation]:
    """(S1)-(S4): + is a commutative idempotent monoid with unit nil."""
    yield Equation("S1", Sum(p, NIL), p)
    yield Equation("S2", Sum(p, p), p)
    yield Equation("S3", Sum(p, q), Sum(q, p))
    yield Equation("S4", Sum(Sum(p, q), r), Sum(p, Sum(q, r)))


def axiom_C(p: Process, q: Process) -> Iterator[Equation]:
    """(C4)-(C6): conditional laws (with matches as conditions).

    (C4) ``False p = False q`` appears here as the unreachable else-branch
    of a trivially-true match: ``[a=a] p, q1 = [a=a] p, q2`` for any q1, q2.
    """
    yield Equation("C4", Match("a", "a", p, q), Match("a", "a", p, NIL))
    yield Equation("C5", Match("a", "b", p, p), p)
    yield Equation("C6", Match("a", "b", p, q), Match("b", "a", p, q))


def axiom_CP(p: Process) -> Iterator[Equation]:
    """(CP1)/(CP2): conditions commute with prefixes / substitute under
    matched prefixes."""
    # (CP1): [x=y](alpha.p) = [x=y](alpha.[x=y]p)  (bn(alpha) avoids x,y)
    for name, pref in _sample_prefixes():
        yield Equation(
            f"CP1-{name}",
            Match("x", "y", pref(p), NIL),
            Match("x", "y", pref(Match("x", "y", p, NIL)), NIL))
    # (CP2): [x=y] alpha.p = [x=y] (alpha{x/y}).p{x/y}
    body = Output("y", ("y",), p)
    yield Equation(
        "CP2",
        Match("x", "y", body, NIL),
        Match("x", "y", apply_subst(body, {"y": "x"}), NIL))


def axiom_SP(p: Process, q: Process) -> Iterator[Equation]:
    """(SP): input summands may be blended pointwise on the received value.

    a(x).p + a(x).q = a(x).p + a(x).q + a(x).([x=y] p, q)
    """
    lhs = Sum(Input("a", ("x",), p), Input("a", ("x",), q))
    blended = Input("a", ("x",), Match("x", "y", p, q))
    yield Equation("SP", lhs, Sum(lhs, blended))


def _potential_listening(p: Process) -> frozenset[Name]:
    """Channels *p* may listen on under **some** substitution of its free
    names: like ``In(p)`` but taking *both* branches of a match whose test
    a substitution could flip.  ``In(p sigma) subseteq sigma(result)`` for
    every sigma, which is the closure property the (H) guard needs —
    ``listening_channels`` alone evaluates matches under the identity
    interpretation and misses listeners a later identification awakens.
    """
    if isinstance(p, Input):
        return frozenset((p.chan,))
    if isinstance(p, Restrict):
        # a bound channel can never be identified with a free one
        return _potential_listening(p.body) - {p.name}
    if isinstance(p, (Sum, Par)):
        return _potential_listening(p.left) | _potential_listening(p.right)
    if isinstance(p, Match):
        if p.left == p.right:  # no sigma falsifies x = x
            return _potential_listening(p.then)
        return (_potential_listening(p.then)
                | _potential_listening(p.orelse))
    if isinstance(p, Rec):
        from ..core.substitution import unfold_rec
        return _potential_listening(unfold_rec(p))
    return frozenset()  # Nil, Tau, Output guard their continuations


def axiom_H(p: Process, chan: Name = "h") -> Iterator[Equation]:
    """(H): after any prefix, a *guarded* noisy input summand is invisible::

        alpha.p = alpha.(p + phi chan(x).p)

    with ``x`` fresh for p and ``phi`` entailing ``chan != b`` for every
    ``b`` that *p* may listen on — the guard is what keeps the law a
    congruence: a substitution identifying ``chan`` with a listened-on
    channel disables the summand instead of changing behaviour.  Encoded
    with nested mismatches ``[chan != b]{...}``.  The guard set must cover
    every *potential* listener (:func:`_potential_listening`), not just
    ``In(p)``: for ``p = [a=b]{a(x).tau}{0}`` the identity interpretation
    listens on nothing, but the substitution ``b := a`` wakes the listener
    on ``a``, so an unguarded summand on ``chan`` with ``chan := a`` would
    swallow a reception p reacts to.
    """
    if chan in _potential_listening(p):
        return
    x = "hx"
    assert x not in free_names(p)
    summand: Process = Input(chan, (x,), p)
    for b in sorted(_potential_listening(p)):
        summand = Match(chan, b, NIL, summand)  # [chan != b]{summand}
    for name, pref in _sample_prefixes():
        yield Equation(f"H-{name}", pref(p), pref(Sum(p, summand)))


# ---------------------------------------------------------------------------
# Table 7 — restriction axioms
# ---------------------------------------------------------------------------

def axiom_R(p: Process, q: Process) -> Iterator[Equation]:
    """(R1)/(R2): restriction reorders and distributes over +."""
    yield Equation("R1", nu("x", nu("y", p)), nu("y", nu("x", p)))
    yield Equation("R2", nu("x", Sum(p, q)), Sum(nu("x", p), nu("x", q)))


def axiom_RP(p: Process) -> Iterator[Equation]:
    """(RP1)-(RP3): restriction versus prefixes."""
    # (RP1): x not in n(alpha): nu x alpha.p = alpha.nu x p
    yield Equation("RP1-tau", nu("x", Tau(p)), Tau(nu("x", p)))
    yield Equation("RP1-out", nu("x", Output("a", ("b",), p)),
                   Output("a", ("b",), nu("x", p)))
    yield Equation("RP1-in", nu("x", Input("a", ("z",), p)),
                   Input("a", ("z",), nu("x", p)))
    # (RP2): a broadcast on the private channel is a silent step
    yield Equation("RP2", nu("x", Output("x", ("y",), p)), Tau(nu("x", p)))
    # (RP3): an input on the private channel never fires
    yield Equation("RP3", nu("x", Input("x", ("z",), p)), NIL)


def axiom_RM(p: Process) -> Iterator[Equation]:
    """(RM1)/(RM2): restriction versus match."""
    # (RM1): the private name equals nothing
    yield Equation("RM1", nu("x", Match("x", "y", p, NIL)), NIL)
    # (RM2): unrelated matches pass through
    yield Equation("RM2", nu("x", Match("y", "z", p, NIL)),
                   Match("y", "z", nu("x", p), NIL))


# ---------------------------------------------------------------------------
# Table 8 — the expansion law, plus (P1)
# ---------------------------------------------------------------------------

def axiom_P1(p: Process) -> Iterator[Equation]:
    """(P1): p || nil = p."""
    yield Equation("P1", Par(p, NIL), p)


def expansion_instance(p: Process, q: Process,
                       part: Partition | None = None) -> Equation:
    """Table 8 instance: ``p || q`` versus its expansion under *part*
    (default: the discrete partition — all free names distinct).

    The rhs is the head-summand expansion rebuilt as a sum, which is
    exactly the paper's expansion once guards are specialised to a
    complete condition.
    """
    from .decide import rebuild_sum
    names = free_names(p) | free_names(q)
    if part is None:
        part = Partition.discrete(names)
    lhs = Par(p, q)
    rhs = rebuild_sum(head_summands(lhs, part))
    return Equation("EXP", lhs, rhs)


# ---------------------------------------------------------------------------
# Instance harvesting (for tests and benchmarks)
# ---------------------------------------------------------------------------

def all_axiom_instances(p: Process, q: Process, r: Process,
                        ) -> Iterator[Equation]:
    """Every Table 6/7 axiom instantiated at the given sample processes.

    Callers guarantee the processes are finite; side conditions (e.g. (H)'s
    In-freeness) are enforced by the schemas themselves.
    """
    yield from axiom_S(p, q, r)
    yield from axiom_C(p, q)
    yield from axiom_CP(p)
    yield from axiom_SP(p, q)
    yield from axiom_H(p)
    yield from axiom_R(p, q)
    yield from axiom_RP(p)
    yield from axiom_RM(p)
    yield from axiom_P1(p)

