"""Free names, bound names, and guardedness checks.

Following Section 2.1 of the paper: ``nu x`` and input prefixes are the two
name binders; ``fn(p)`` are the names of *p* not under a binder for them,
``bn(p)`` the names bound somewhere in *p*, and ``n(p) = fn(p) + bn(p)``.

For recursion, the paper assumes the parameter list of ``rec X(x~).p``
contains all free names of the body, and that ``X`` occurs *guarded*
(underneath a prefix) in the body; :func:`check_guarded` validates the
latter, :func:`free_idents` computes the free process identifiers used by
open-process machinery (Definition 12).
"""

from __future__ import annotations

from typing import Iterator

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


def free_names(p: Process) -> frozenset[Name]:
    """The set ``fn(p)`` of free names of *p* (memoized on the node)."""
    result = getattr(p, "_fn", None)
    if result is None:
        result = p._fn = _free_names(p)
    return result


def _free_names(p: Process) -> frozenset[Name]:
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, Tau):
        return free_names(p.cont)
    if isinstance(p, Input):
        return (free_names(p.cont) - frozenset(p.params)) | {p.chan}
    if isinstance(p, Output):
        return free_names(p.cont) | {p.chan} | frozenset(p.args)
    if isinstance(p, Restrict):
        return free_names(p.body) - {p.name}
    if isinstance(p, Match):
        return (free_names(p.then) | free_names(p.orelse)
                | {p.left, p.right})
    if isinstance(p, (Sum, Par)):
        return free_names(p.left) | free_names(p.right)
    if isinstance(p, Ident):
        return frozenset(p.args)
    if isinstance(p, Rec):
        # params bind in body; the instantiating args are free.
        return (free_names(p.body) - frozenset(p.params)) | frozenset(p.args)
    raise TypeError(f"unknown process node {type(p).__name__}")


def free_occurrence_order(p: Process) -> tuple[Name, ...]:
    """Free names of *p* in order of first occurrence in a pre-order walk.

    The same names as :func:`free_names`, ordered.  Memoized on the node
    and built from the children's orders: the node's own names come
    first, then each child's order minus the names the node binds,
    keeping first occurrences.
    """
    try:
        return p._fo
    except AttributeError:
        pass
    if isinstance(p, Input):
        own: tuple[Name, ...] = (p.chan,)
        bound: tuple[Name, ...] = p.params
    elif isinstance(p, Output):
        own, bound = (p.chan,) + p.args, ()
    elif isinstance(p, Match):
        own, bound = (p.left, p.right), ()
    elif isinstance(p, Restrict):
        own, bound = (), (p.name,)
    elif isinstance(p, Rec):
        own, bound = p.args, p.params
    else:  # Nil, Tau, Sum, Par, Ident
        own, bound = getattr(p, "args", ()), ()
    order = dict.fromkeys(own)
    for child in p.children():
        for name in free_occurrence_order(child):
            if name not in bound:
                order.setdefault(name)
    got = p._fo = tuple(order)
    return got


def bound_names(p: Process) -> frozenset[Name]:
    """The set ``bn(p)`` of names bound somewhere in *p* (node-memoized)."""
    try:
        return p._bn
    except AttributeError:
        pass
    result = _bound_names(p)
    p._bn = result
    return result


def _bound_names(p: Process) -> frozenset[Name]:
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, Tau):
        return bound_names(p.cont)
    if isinstance(p, Input):
        return bound_names(p.cont) | frozenset(p.params)
    if isinstance(p, Output):
        return bound_names(p.cont)
    if isinstance(p, Restrict):
        return bound_names(p.body) | {p.name}
    if isinstance(p, Match):
        return bound_names(p.then) | bound_names(p.orelse)
    if isinstance(p, (Sum, Par)):
        return bound_names(p.left) | bound_names(p.right)
    if isinstance(p, Ident):
        return frozenset()
    if isinstance(p, Rec):
        return bound_names(p.body) | frozenset(p.params)
    raise TypeError(f"unknown process node {type(p).__name__}")


def all_names(p: Process) -> frozenset[Name]:
    """The set ``n(p) = fn(p) | bn(p)``."""
    return free_names(p) | bound_names(p)


def free_idents(p: Process) -> frozenset[str]:
    """Process identifiers occurring free in *p* (not bound by a ``rec``)."""
    if isinstance(p, Ident):
        return frozenset({p.ident})
    if isinstance(p, Rec):
        return free_idents(p.body) - {p.ident}
    out: frozenset[str] = frozenset()
    for c in p.children():
        out |= free_idents(c)
    return out


def is_closed(p: Process) -> bool:
    """True if *p* contains no free process identifiers.

    The paper reserves the word *process* for closed terms; open terms only
    appear in the congruence machinery (Definition 12).
    """
    return not free_idents(p)


class NotAProcess(ValueError):
    """A term that parses but is not a process in the paper's sense: it is
    open (a free process identifier) or has unguarded recursion."""


def unguarded_occurrences(
        p: Process) -> Iterator[tuple[tuple[int, ...], str]]:
    """Each occurrence of a ``rec``-bound identifier with no prefix
    between it and its ``rec``, in pre-order, as ``(path, identifier)``:
    *path* is the child indices (:meth:`Process.children`) from *p* down
    to the occurrence.

    The one walk behind both :func:`check_guarded` (admission) and the
    lint pass BP101.
    """
    stack: list[tuple[Process, frozenset[str], tuple[int, ...]]] = [
        (p, frozenset(), ())]
    while stack:
        q, unguarded, path = stack.pop()
        if isinstance(q, Ident):
            if q.ident in unguarded:
                yield path, q.ident
            continue
        if isinstance(q, (Tau, Input, Output)):
            # Underneath a prefix everything is guarded.
            unguarded = frozenset()
        elif isinstance(q, Rec):
            unguarded = unguarded | {q.ident}
        children = list(q.children())
        for i in reversed(range(len(children))):
            stack.append((children[i], unguarded, path + (i,)))


def check_guarded(p: Process) -> None:
    """Raise :class:`NotAProcess` unless every ``rec``-bound identifier occurs
    guarded (strictly underneath a prefix) in its body.

    The paper assumes guardedness so that unfolding a recursion always makes
    progress; the discard relation's rule (10) and the LTS rule (11) both
    rely on it for termination.
    """
    for _, ident in unguarded_occurrences(p):
        raise NotAProcess(
            f"identifier {ident!r} occurs unguarded in a rec body")


def validate(p: Process) -> None:
    """Raise :class:`NotAProcess` unless *p* is a process in the paper's
    sense: closed (:func:`is_closed`) and guarded (:func:`check_guarded`)."""
    idents = free_idents(p)
    if idents:
        raise NotAProcess(
            f"not a closed process: free identifier "
            f"{', '.join(map(repr, sorted(idents)))}")
    check_guarded(p)
