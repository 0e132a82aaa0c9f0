"""The discard relation ``p -a/->`` of Table 2.

``discards(p, a)`` holds when *p* ignores every broadcast made on channel
*a* — intuitively, when *p* is not listening on *a*.  The rules:

    (1)  nil -a/->
    (2)  tau.p -a/->
    (3)  b<y~>.p -a/->                       (outputs never listen)
    (4)  b(x~).p -a/->           if a != b
    (5)  nu x p -a/->            if x = a or p -a/->
    (6)  p1 + p2 -a/->           if p1 -a/-> and p2 -a/->
    (7)  [x=x] p1, p2 -a/->      if p1 -a/->
    (8)  [x=y] p1, p2 -a/->      if p2 -a/->   (x != y)
    (9)  p1 || p2 -a/->          if p1 -a/-> and p2 -a/->
    (10) (rec X(x~).p)<y~> -a/-> if the unfolding discards a

The rules are computed once, as the set ``In(p)`` of channels *p* listens
on: ``p -a/->`` iff ``a`` is not in ``In(p)``, rule by rule.

A key invariant of the calculus (property-tested in the suite) is the
*input/discard dichotomy*: for every process *p* and channel *a*, exactly
one of "p has an a-input transition" and "p discards a" holds.  A process
listening on *a* cannot refuse a broadcast on it; one not listening cannot
observe it.
"""

from __future__ import annotations

from .names import Name
from .syntax import (
    Ident,
    Input,
    Match,
    Nil,
    Output,
    Par,
    Process,
    Rec,
    Restrict,
    Sum,
    Tau,
)


def discards(p: Process, a: Name) -> bool:
    """Return True iff ``p -a/->`` (p discards all outputs made on *a*)."""
    return a not in listening_channels(p)


def listening_channels(p: Process) -> frozenset[Name]:
    """The set ``In(p)`` of channels *p* is currently listening on.

    ``a in listening_channels(p)`` iff *p* does **not** discard *a*; by the
    dichotomy this is exactly the set of subjects of the input transitions
    available to *p*.  Only free names can be listened on from outside, so
    the result is a subset of ``fn(p)``.
    """
    result = getattr(p, "_listen", None)
    if result is None:
        result = p._listen = _listening_channels(p)
    return result


def _listening_channels(p: Process) -> frozenset[Name]:
    if isinstance(p, (Nil, Tau, Output)):  # rules (1)-(3)
        return frozenset()
    if isinstance(p, Input):  # rule (4)
        return frozenset((p.chan,))
    if isinstance(p, Restrict):
        # Rule (5): a body listening on x listens on the *local* x, a
        # different channel from the external one of the same spelling.
        return listening_channels(p.body) - {p.name}
    if isinstance(p, (Sum, Par)):  # rules (6), (9)
        return listening_channels(p.left) | listening_channels(p.right)
    if isinstance(p, Match):  # rules (7), (8)
        if p.left == p.right:
            return listening_channels(p.then)
        return listening_channels(p.orelse)
    if isinstance(p, Rec):  # rule (10)
        from .substitution import unfold_rec
        return listening_channels(unfold_rec(p))
    if isinstance(p, Ident):
        raise ValueError(
            f"In(p) undefined on open process (free identifier {p.ident!r})")
    raise TypeError(f"unknown process node {type(p).__name__}")
