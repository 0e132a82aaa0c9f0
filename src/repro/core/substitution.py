"""Capture-avoiding substitution, alpha-conversion and alpha-equality.

Substitutions map names to names (the calculus is first-order in that only
channel names are transmitted).  ``apply_subst`` renames bound names on the
fly whenever they would capture a substituted name.  ``canonical_alpha``
rewrites every binder to a canonical indexed name in pre-order, so that two
terms are alpha-equivalent iff their canonical forms are structurally equal
(rule (1) of Table 3 lets the LTS identify alpha-convertible terms).
"""

from __future__ import annotations

from typing import Mapping

from ..obs import metrics as _metrics
from ..obs.state import STATE as _OBS
from .freenames import free_idents, free_names, free_occurrence_order
from .names import Name, fresh_name
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

#: Reserved prefix for canonical bound names.  The parser rejects user
#: names with this prefix, but a canonical name can still become free (a
#: bound output extrudes it), so :func:`canonical_alpha` skips the indices
#: of the ``_v`` names free in the term it renames.
BOUND_PREFIX = "_v"

Subst = Mapping[Name, Name]


def restrict_subst(mapping: Subst, names: frozenset[Name]) -> dict[Name, Name]:
    """Restrict *mapping* to *names*, dropping identity entries."""
    return {x: y for x, y in mapping.items() if x in names and x != y}


def subst_name(x: Name, mapping: Subst) -> Name:
    """Apply *mapping* to a single name."""
    return mapping.get(x, x)


def subst_names(xs: tuple[Name, ...], mapping: Subst) -> tuple[Name, ...]:
    """Apply *mapping* pointwise to a name vector."""
    return tuple(mapping.get(x, x) for x in xs)


def _refresh_binders(binders: tuple[Name, ...], body_free: frozenset[Name],
                     mapping: dict[Name, Name]) -> tuple[tuple[Name, ...], dict[Name, Name]]:
    """Prepare *binders* for passing a substitution under them.

    Returns the (possibly renamed) binders and the substitution extended
    with any renamings; entries for binder names are removed first since a
    binder shadows outer substitution.
    """
    inner = {x: y for x, y in mapping.items() if x not in binders}
    # Names that could be captured: codomain of the part of the substitution
    # that actually acts on the body's free names.
    relevant_cod = {inner[x] for x in body_free if x in inner}
    clash = [b for b in binders if b in relevant_cod]
    if not clash:
        return binders, inner
    avoid = set(body_free) | set(inner.keys()) | set(inner.values()) | set(binders)
    new_binders = []
    for b in binders:
        if b in relevant_cod:
            nb = fresh_name(avoid, hint=b)
            avoid.add(nb)
            inner[b] = nb
            new_binders.append(nb)
        else:
            new_binders.append(b)
    return tuple(new_binders), inner


def apply_subst(p: Process, mapping: Subst) -> Process:
    """Apply the name substitution *mapping* to *p*, avoiding capture."""
    got = _apply_trim(p, mapping)
    if got is not p and _OBS.enabled:
        _metrics.inc("core.substitutions_applied")
    return got


def apply_image(p: Process, image: tuple[Name, ...]) -> Process:
    """*p* with its free names renamed position by position.

    *image* holds the names the entries of ``free_occurrence_order(p)``
    go to: the same renaming as :func:`apply_subst` with the map
    ``fo[i] -> image[i]``, for a caller that already holds the image.
    """
    got = _apply_trim(p, {}, image)
    if got is not p and _OBS.enabled:
        _metrics.inc("core.substitutions_applied")
    return got


def _apply(p: Process, mapping: dict[Name, Name]) -> Process:
    """One renaming step at *p*, some of whose free names *mapping* moves
    (so *p* is not nil); the children go through :func:`_apply_trim`."""
    if isinstance(p, Tau):
        return Tau(_apply_trim(p.cont, mapping))
    if isinstance(p, Input):
        chan = subst_name(p.chan, mapping)
        params, inner = _refresh_binders(p.params, free_names(p.cont), dict(mapping))
        return Input(chan, params, _apply_trim(p.cont, inner))
    if isinstance(p, Output):
        return Output(subst_name(p.chan, mapping), subst_names(p.args, mapping),
                      _apply_trim(p.cont, mapping))
    if isinstance(p, Restrict):
        binders, inner = _refresh_binders((p.name,), free_names(p.body), dict(mapping))
        return Restrict(binders[0], _apply_trim(p.body, inner))
    if isinstance(p, Match):
        return Match(subst_name(p.left, mapping), subst_name(p.right, mapping),
                     _apply_trim(p.then, mapping), _apply_trim(p.orelse, mapping))
    if isinstance(p, Sum):
        return Sum(_apply_trim(p.left, mapping), _apply_trim(p.right, mapping))
    if isinstance(p, Par):
        return Par(_apply_trim(p.left, mapping), _apply_trim(p.right, mapping))
    if isinstance(p, Ident):
        return Ident(p.ident, subst_names(p.args, mapping))
    if isinstance(p, Rec):
        args = subst_names(p.args, mapping)
        # The paper assumes fn(body) is contained in the parameters, so the
        # body itself is unaffected by outer substitution; we still handle
        # the general case for robustness.
        body_free = free_names(p.body) - frozenset(p.params)
        inner = restrict_subst(mapping, body_free)
        if inner:
            params, inner2 = _refresh_binders(p.params, free_names(p.body),
                                              dict(inner))
            return Rec(p.ident, params, _apply_trim(p.body, inner2), args)
        return Rec(p.ident, p.params, p.body, args)
    raise TypeError(f"unknown process node {type(p).__name__}")


def _apply_trim(p: Process, mapping: Subst,
                image: tuple[Name, ...] | None = None) -> Process:
    """*mapping* applied to *p*, memoized on the node: the one reader of
    the ``_sub`` memo.

    The renaming reads *mapping* only at p's free names, and binders are
    freshened against those names and their images alone, so the result
    is a pure function of the image of p's free-occurrence order: that
    image keys the memo, and an image equal to the order itself leaves
    *p* as it is.  A caller that already holds the image passes it as
    *image*, and *mapping* is then not read.
    """
    fo = free_occurrence_order(p)
    if image is None:
        image = tuple([mapping.get(n, n) for n in fo])
    if image == fo:
        return p
    try:
        memo = p._sub
    except AttributeError:
        memo = p._sub = {}
    got = memo.get(image)
    if got is None:
        got = memo[image] = _apply(
            p, {x: y for x, y in zip(fo, image) if x != y})
    return got


def subst_ident(p: Process, ident: str, params: tuple[Name, ...],
                body: Process) -> Process:
    """Replace free occurrences ``X<z~>`` in *p* by ``(rec X(x~).body)<z~>``.

    This is the identifier part of the unfolding in rule (11) of Table 3:
    ``p[(rec X(x~).p)/X]``.  The substitution is capture-avoiding: a
    binder of *p* (input parameter, restriction, inner ``rec`` parameter)
    that would capture a free name of the recursion, i.e. a name of
    ``fn(body) - x~``, is renamed apart before the recursion goes under it.
    """
    return _subst_ident(p, ident, params, body,
                        free_names(body).difference(params))


def _subst_ident(p: Process, ident: str, params: tuple[Name, ...],
                 body: Process, outer: frozenset[Name]) -> Process:
    """:func:`subst_ident`, where *outer* is ``fn(body) - params``."""
    if isinstance(p, Ident):
        if p.ident == ident:
            return Rec(ident, params, body, p.args)
        return p
    if isinstance(p, Rec):
        if p.ident == ident:  # inner rec shadows X
            return p
        if outer:
            p = _rename_apart(p, ident, outer)
        return Rec(p.ident, p.params,
                   _subst_ident(p.body, ident, params, body, outer), p.args)
    if isinstance(p, Nil):
        return p
    if isinstance(p, Tau):
        return Tau(_subst_ident(p.cont, ident, params, body, outer))
    if isinstance(p, Input):
        if outer:
            p = _rename_apart(p, ident, outer)
        return Input(p.chan, p.params,
                     _subst_ident(p.cont, ident, params, body, outer))
    if isinstance(p, Output):
        return Output(p.chan, p.args,
                      _subst_ident(p.cont, ident, params, body, outer))
    if isinstance(p, Restrict):
        if outer:
            p = _rename_apart(p, ident, outer)
        return Restrict(p.name,
                        _subst_ident(p.body, ident, params, body, outer))
    if isinstance(p, Match):
        return Match(p.left, p.right,
                     _subst_ident(p.then, ident, params, body, outer),
                     _subst_ident(p.orelse, ident, params, body, outer))
    if isinstance(p, Sum):
        return Sum(_subst_ident(p.left, ident, params, body, outer),
                   _subst_ident(p.right, ident, params, body, outer))
    if isinstance(p, Par):
        return Par(_subst_ident(p.left, ident, params, body, outer),
                   _subst_ident(p.right, ident, params, body, outer))
    raise TypeError(f"unknown process node {type(p).__name__}")


def _rename_apart(p: Input | Restrict | Rec, ident: str,
                  outer: frozenset[Name]) -> Process:
    """Binder node *p* with each binder in *outer* renamed fresh, when
    a recursion with the free names *outer* is substituted for *ident*
    in its scope; *p* itself when nothing would be captured."""
    if isinstance(p, Restrict):
        binders, scope = (p.name,), p.body
    else:
        binders = p.params
        scope = p.cont if isinstance(p, Input) else p.body
    if outer.isdisjoint(binders) or ident not in free_idents(scope):
        return p
    avoid = set(outer) | free_names(scope) | set(binders)
    renaming = {}
    for b in binders:
        if b in outer:
            renaming[b] = fresh_name(avoid, hint=b)
            avoid.add(renaming[b])
    fresh = tuple(renaming.get(b, b) for b in binders)
    scope = apply_subst(scope, renaming)
    if isinstance(p, Restrict):
        return Restrict(fresh[0], scope)
    if isinstance(p, Input):
        return Input(p.chan, fresh, scope)
    return Rec(p.ident, fresh, scope, p.args)


def unfold_rec(p: Rec) -> Process:
    """One-step unfolding of a recursion, per rule (11):

    ``(rec X(x~).body)<y~>``  unfolds to  ``body[(rec X(x~).body)/X][y~/x~]``.
    """
    expanded = subst_ident(p.body, p.ident, p.params, p.body)
    mapping = dict(zip(p.params, p.args))
    return apply_subst(expanded, mapping)


# --------------------------------------------------------------------------
# Canonical alpha-renaming and alpha-equality
# --------------------------------------------------------------------------

def canonical_alpha(p: Process) -> Process:
    """Rename every binder of *p* to a canonical indexed name.

    Two processes are alpha-equivalent iff their canonical forms are equal.
    Canonical names ``_v0``, ``_v1``, ... are assigned in pre-order, so the
    result is deterministic and independent of the original bound names.
    Indices of ``_v`` names free in *p* (extrusion frees them from
    canonical states) are skipped, so no binder captures a free name.  The
    result is memoized on the interned node; it is a fixpoint of the
    renaming, so the canonical form points at itself.
    """
    try:
        return p._alpha
    except AttributeError:
        pass
    n = len(BOUND_PREFIX)
    taken = frozenset(int(x[n:]) for x in free_names(p)
                      if x.startswith(BOUND_PREFIX) and x[n:].isdigit())
    got = _rebuild_alpha(p, {}, [0], taken) if _binder_count(p) else p
    p._alpha = got
    got._alpha = got
    return got


def _binder_count(p: Process) -> int:
    """How many canonical names :func:`canonical_alpha` allocates in *p*
    (one per input/rec parameter and restriction; memoized on the node)."""
    try:
        return p._nb
    except AttributeError:
        pass
    if isinstance(p, (Input, Rec)):
        n = len(p.params)
    else:
        n = 1 if isinstance(p, Restrict) else 0
    for child in p.children():
        n += _binder_count(child)
    p._nb = n
    return n


def _walk_alpha(q: Process, env: dict[Name, Name], counter: list[int],
                taken: frozenset[int]) -> Process:
    """Alpha-canonicalise *q* under the binder renaming *env*, numbering
    its binders from ``counter[0]`` (skipping the indices *taken*) and
    advancing the counter past them.

    Binders are numbered in pre-order across the term, so a subterm's
    form depends on where it sits.  Where the numbering starts at 0,
    *env* renames none of q's free names and nothing is taken, that form
    is ``canonical_alpha(q)``, read from its memo; a binder-free subterm
    that *env* leaves alone is its own form anywhere.
    """
    if env and not env.keys().isdisjoint(free_names(q)):
        return _rebuild_alpha(q, env, counter, taken)
    try:
        n = q._nb
    except AttributeError:
        n = _binder_count(q)
    if not n:
        return q
    if counter[0] or taken:
        return _rebuild_alpha(q, env, counter, taken)
    counter[0] = n
    return canonical_alpha(q)


def _fresh_bound(k: int, counter: list[int],
                 taken: frozenset[int]) -> tuple[Name, ...]:
    """The next *k* canonical names, skipping the indices *taken*."""
    out = []
    i = counter[0]
    while len(out) < k:
        if i not in taken:
            out.append(f"{BOUND_PREFIX}{i}")
        i += 1
    counter[0] = i
    return tuple(out)


def _rebuild_alpha(q: Process, env: dict[Name, Name], counter: list[int],
                   taken: frozenset[int]) -> Process:
    """One renaming step at *q*; the children go through :func:`_walk_alpha`."""
    if isinstance(q, Nil):
        return q
    if isinstance(q, Tau):
        return Tau(_walk_alpha(q.cont, env, counter, taken))
    if isinstance(q, Input):
        chan = env.get(q.chan, q.chan)
        new_params = _fresh_bound(len(q.params), counter, taken)
        inner = dict(env)
        inner.update(zip(q.params, new_params))
        return Input(chan, new_params,
                     _walk_alpha(q.cont, inner, counter, taken))
    if isinstance(q, Output):
        return Output(env.get(q.chan, q.chan),
                      tuple(env.get(a, a) for a in q.args),
                      _walk_alpha(q.cont, env, counter, taken))
    if isinstance(q, Restrict):
        (new_name,) = _fresh_bound(1, counter, taken)
        inner = dict(env)
        inner[q.name] = new_name
        return Restrict(new_name, _walk_alpha(q.body, inner, counter, taken))
    if isinstance(q, Match):
        return Match(env.get(q.left, q.left), env.get(q.right, q.right),
                     _walk_alpha(q.then, env, counter, taken),
                     _walk_alpha(q.orelse, env, counter, taken))
    if isinstance(q, Sum):
        return Sum(_walk_alpha(q.left, env, counter, taken),
                   _walk_alpha(q.right, env, counter, taken))
    if isinstance(q, Par):
        return Par(_walk_alpha(q.left, env, counter, taken),
                   _walk_alpha(q.right, env, counter, taken))
    if isinstance(q, Ident):
        return Ident(q.ident, tuple(env.get(a, a) for a in q.args))
    if isinstance(q, Rec):
        args = tuple(env.get(a, a) for a in q.args)
        new_params = _fresh_bound(len(q.params), counter, taken)
        inner = dict(env)
        inner.update(zip(q.params, new_params))
        return Rec(q.ident, new_params,
                   _walk_alpha(q.body, inner, counter, taken), args)
    raise TypeError(f"unknown process node {type(q).__name__}")


def alpha_eq(p: Process, q: Process) -> bool:
    """Alpha-equivalence of process terms (rule (1) of Table 3)."""
    if p is q or p == q:
        return True
    return canonical_alpha(p) == canonical_alpha(q)


def rename_bound_apart(p: Process, avoid: frozenset[Name]) -> Process:
    """Alpha-rename binders of *p* so that no bound name is in *avoid*.

    Useful before placing *p* in a context where name clashes between its
    binders and outside names would force repeated on-the-fly renaming.
    """

    def walk(q: Process, env: dict[Name, Name], taken: set[Name]) -> Process:
        if isinstance(q, Nil):
            return q
        if isinstance(q, Tau):
            return Tau(walk(q.cont, env, taken))
        if isinstance(q, Input):
            chan = env.get(q.chan, q.chan)
            new_params, inner = _walk_binders(q.params, env, taken)
            return Input(chan, new_params, walk(q.cont, inner, taken))
        if isinstance(q, Output):
            return Output(env.get(q.chan, q.chan),
                          tuple(env.get(a, a) for a in q.args),
                          walk(q.cont, env, taken))
        if isinstance(q, Restrict):
            new_names, inner = _walk_binders((q.name,), env, taken)
            return Restrict(new_names[0], walk(q.body, inner, taken))
        if isinstance(q, Match):
            return Match(env.get(q.left, q.left), env.get(q.right, q.right),
                         walk(q.then, env, taken), walk(q.orelse, env, taken))
        if isinstance(q, Sum):
            return Sum(walk(q.left, env, taken), walk(q.right, env, taken))
        if isinstance(q, Par):
            return Par(walk(q.left, env, taken), walk(q.right, env, taken))
        if isinstance(q, Ident):
            return Ident(q.ident, tuple(env.get(a, a) for a in q.args))
        if isinstance(q, Rec):
            args = tuple(env.get(a, a) for a in q.args)
            new_params, inner = _walk_binders(q.params, env, taken)
            return Rec(q.ident, new_params, walk(q.body, inner, taken), args)
        raise TypeError(f"unknown process node {type(q).__name__}")

    def _walk_binders(binders: tuple[Name, ...], env: dict[Name, Name],
                      taken: set[Name]) -> tuple[tuple[Name, ...], dict[Name, Name]]:
        inner = dict(env)
        out = []
        for b in binders:
            if b in avoid or b in taken:
                nb = fresh_name(avoid | taken | set(inner.values()), hint=b)
            else:
                nb = b
            taken.add(nb)
            inner[b] = nb
            out.append(nb)
        return tuple(out), inner

    return walk(p, {}, set(free_names(p)))
