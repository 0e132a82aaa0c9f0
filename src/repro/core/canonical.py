"""Structural canonical forms for state identity.

State-space exploration must recognise when two syntactically different
terms denote "the same" state, or recursive systems that are semantically
finite-state explode syntactically (dead ``nil`` components, reassociated
parallels, alpha-variants...).

:func:`canonical_state` quotients a *closed* term by laws the paper itself
proves sound for all three equivalences and their congruences:

* Lemma 6 (b)-(d):   ``p || nil ~ p``, commutativity/associativity of ``||``
* Lemma 6 (e)-(g) and axioms (S1)-(S4): the same for ``+`` (plus idempotence)
* Lemma 6 (h)-(l) / Table 7: garbage-collection, reordering and scope
  extrusion of restrictions, and axiom R2, ``nu x (p + q) = nu x p +
  nu x q``, sound for strong congruence, the finest relation decided here
* match resolution (rules (9)/(10) make both branches one-step-identical)
* rule (1): alpha-conversion.

Each rewrite produces a term whose transition set is identical to the
original's modulo re-canonicalization of targets — the property tests in
``tests/test_canonical.py`` check exactly that.

The transformation only touches the *active* structure of the state (the
part the next transition can see); continuations under prefixes are left
as written, up to alpha.

No normal form restricts a sum: a binder pushed into one goes to the
summands that use it (R2, then law h; :func:`_push`).

A normal form is its own canonical representative: there is no final
alpha pass over the whole state.  Every top-level component is its own
:func:`~repro.core.substitution.canonical_alpha`, with its binders
numbered from ``_v0`` inside it, so a component reads the same wherever
it sits, its sort key is its fingerprint, and a composition of such
components is canonical as it stands.  Restrictions hoisted to the top
are named ``_h0``, ``_h1``, ... by first occurrence, skipping the
state's free names: a component binds only ``_v`` names, so none binds
or captures one.  The order of first occurrence is the least walk of the
components read blind to those binders (:func:`_orders`), walking the
summands of a sum and the components of a composition inside one the
same way, so neither their spelling nor their nesting shows in it.

Every part is memoized on the interned nodes.  A binder-free state is a
sorted multiset of components (laws b-d), and a successor built by the
parallel rules keeps most of its source's spine.  So the normal form of
a binder-free spine is made from the first sub-spine down its right
spine whose normal form is already memoized (``_nf``/``_nf2``, one slot
per collapse mode): the components above it are sorted and merged into
that normal form, and only the nodes above the last insertion are built.
Every node built is memoized as its own normal form, as every suffix of
a normal form is, and so is each ``Par`` passed on the way down whose
normal form costs one node.  A canonical state is its own normal form,
so a successor keeps every suffix of its spine that it did not change.
A spine whose walk reaches a restriction is left to the hoisting walk:
hoisting a binder renames it against the free names of the whole
composition and the binders hoisted before it, so only a binder-free
sub-spine normalizes the same in every context.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from .freenames import free_names, free_occurrence_order
from .names import Name, fresh_name
from .substitution import apply_subst, canonical_alpha
from .syntax import (
    NIL,
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


def _flatten(p: Process, cls: type) -> list[Process]:
    """Flatten nested binary *cls* (Sum or Par) nodes into a list."""
    if isinstance(p, cls):
        return _flatten(p.left, cls) + _flatten(p.right, cls)
    return [p]


def _rebuild(parts: list[Process], cls: type, unit: Process) -> Process:
    """Right-nest *parts* under *cls*; empty list gives *unit*."""
    if not parts:
        return unit
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = cls(part, out)
    return out


def _stable_fingerprint(p: Process) -> bytes:
    """A PYTHONHASHSEED-independent structural fingerprint of *p*.

    The builtin ``hash`` cannot orient siblings: string hashing is salted
    per process (``PYTHONHASHSEED``), so two processes — a CLI run and a
    ``repro serve`` over the same verdict store, or ``batch --workers``
    pool members — would disagree on the orientation of ``a! + b!``, and
    with it on ``canonical_state``, ``state_digest`` and every
    ``repro.store`` key written to disk.  This fingerprint is a pure
    function of the structure, memoized per interned node, so it is O(1)
    amortized like the cached hash it replaces.

    It is 33 bytes: the rank of the node's class in :data:`_CLASS_ORDER`,
    then the sha256 of the class name and each field in turn (a child's
    32-byte digest, or the ``repr`` of a name or name tuple), each field
    followed by a zero byte.  Sorting by fingerprint so groups components
    by kind (inputs, then outputs, ...) whatever their names.
    """
    got = getattr(p, "_stable", None)
    if got is None:
        cls = p.__class__.__name__
        h = hashlib.sha256(cls.encode())
        for f in p._fields:
            v = getattr(p, f)
            h.update(_stable_fingerprint(v)[1:] if isinstance(v, Process)
                     else repr(v).encode())
            h.update(b"\x00")
        got = p._stable = _CLASS_ORDER[cls] + h.digest()
    return got


#: The leading fingerprint byte of each node class, in name order.
_CLASS_ORDER = {name: bytes([rank]) for rank, name in enumerate(sorted(
    ("Ident", "Input", "Match", "Nil", "Output", "Par", "Rec", "Restrict",
     "Sum", "Tau")))}


def canonical_state(p: Process) -> Process:
    """The canonical representative of *p*'s structural-congruence class:
    its normal form.

    Memoized on the interned node (the normal form's ``_nf`` slot):
    exploring a state space recanonicalizes the same shared subterms over
    and over, and with hash-consing those are pointer-identical, so the
    cache hit is a slot read.  Warm callers (the equivalence checkers)
    mostly hit, so the probe is a ``try``, cheaper than ``getattr`` on a
    hit.
    """
    try:
        return p._nf
    except AttributeError:
        return _normalize(p, False)


def canonical_state_collapsed(p: Process) -> Process:
    """Canonical form that additionally collapses *identical* parallel
    components (``q || q`` becomes ``q``).

    This is NOT a structural congruence: multiplicity can matter.  But
    broadcast composition is *monotone* — adding a parallel component never
    disables a transition (an extra listener is forced to receive, and
    receives alongside, never instead) — so collapsing under-approximates
    reachability: every barb reachable from the collapsed state is
    reachable from the original.  Systems whose logic never counts
    duplicate receptions (all of the paper's examples) lose nothing, and
    gain finite state spaces: the cycle detector's re-broadcast tokens
    would otherwise pile up duplicate one-shot emitters without bound.
    """
    try:
        return p._nf2
    except AttributeError:
        return _normalize(p, True)


def _normalize(p: Process, collapse: bool) -> Process:
    # Memoized per interned node (one slot per collapse mode): sibling
    # states of an exploration share almost all of their components, so
    # normalizing a successor mostly re-reads slots.
    slot = "_nf2" if collapse else "_nf"
    got = getattr(p, slot, None)
    if got is not None:
        return got
    if isinstance(p, (Par, Restrict)):
        return _normalize_composition(p, collapse)  # memoizes what it may
    result = _normalize_uncached(p, collapse)
    setattr(p, slot, result)
    return result


def _normalize_uncached(p: Process, collapse: bool) -> Process:
    if isinstance(p, (Nil, Tau, Input, Output, Rec)):
        # Prefixes and folded recursions are atomic at the state level.
        return canonical_alpha(p)
    if isinstance(p, Match):
        # Closed states have concrete names: resolve the conditional.
        return _normalize(p.then if p.left == p.right else p.orelse, collapse)
    if isinstance(p, Sum):
        parts = []
        for q in _flatten(p, Sum):
            # Summands may be restrictions, matches or nested structure;
            # law (k) hoists restrictions only at the composition layer.
            # A summand that normalizes to a sum joins this one.
            nq = _normalize(q, collapse)
            if nq.__class__ is Sum:
                parts += _flatten(nq, Sum)
            elif not isinstance(nq, Nil):  # (S1)
                parts.append(nq)
        # (S2)-(S4): dedup modulo alpha, sort, right-nest.  A lone part
        # is a normal form already; a sum of several is a component.
        unique = list(dict.fromkeys(map(canonical_alpha, parts)))
        unique.sort(key=_stable_fingerprint)
        if len(unique) == 1:
            return parts[0]
        return canonical_alpha(_rebuild(unique, Sum, NIL))
    raise TypeError(f"unexpected node {type(p).__name__} in closed state")


def _spine(q: Process) -> Iterator[Process]:
    """The components of the normal form *q*, in order."""
    while q.__class__ is Par:
        yield q.left
        q = q.right
    if q is not NIL:
        yield q


def _usable(nf: Process, slot: str) -> bool:
    """Whether the memoized normal form *nf* of a sub-spine hands the
    merge its parts: a component, ``nil``, or a spine that is its own
    normal form.  Such a spine may hold components with restrictions
    pushed inside, which normalize to themselves in any context.  A
    restriction on top, or a spine that is not its own normal form,
    comes only from the hoisting walk and sends the merge there too."""
    cls = nf.__class__
    return cls is not Restrict and (cls is not Par
                                    or getattr(nf, slot, None) is nf)


def _gather(p: Process, slot: str, collapse: bool,
            parts: list[Process]) -> bool:
    """Append the parts of the spine *p* to *parts* in walk order: each
    normalized component, or the memoized normal form of a sub-spine,
    not walked, when that is a spine (a ``Par`` that is its own normal
    form).

    Returns ``False`` as soon as the walk reaches a restriction.  Only
    leaves are normalized, so no sub-spine that reaches one is.
    """
    stack = [p]
    while stack:
        q = stack.pop()
        cls = q.__class__
        if cls is Par:
            nf = getattr(q, slot, None)
            if nf is None:
                stack += (q.right, q.left)
            elif not _usable(nf, slot):
                return False
            elif nf is not NIL:
                parts.append(nf)
        elif cls is Match:
            stack.append(q.then if q.left == q.right else q.orelse)
        elif cls is Restrict:
            return False
        else:
            nq = getattr(q, slot, None) or _normalize(q, collapse)
            cls = nq.__class__
            if cls is Par or cls is Restrict:
                # Normalization exposed more structure (e.g. a sum with
                # one summand that is a composition); keep walking.
                stack.append(nq)
            elif cls is not Nil:
                parts.append(nq)
    return True


def _merge_spine(p: Par, collapse: bool) -> Process | None:
    """The normal form of the binder-free spine *p*, or ``None`` when
    its walk reaches a restriction.

    The walk goes down *p*'s right spine to the first sub-spine whose
    normal form *s* is memoized (or to its last component), gathering
    the parts on the left of each ``Par`` it passes.  Bottom-up, each of
    those ``Par`` nodes whose left part is one component that sorts
    before all of *s* gets ``Par(component, s)`` as its normal form,
    memoized on it; that is one new node a level.  The components above
    the first level that does not are sorted and merged into *s* in one
    pass, ties going to them: they precede all of *s* in walk order, so
    the result is the stable sort of the whole walk.  Collapse mode drops
    a component whose key equals the one before it.  Every node built is
    its own normal form and memoized as such, as every suffix of *s*
    already is.
    """
    slot = "_nf2" if collapse else "_nf"
    levels: list[Par] = []
    lefts: list[list[Process]] = []
    s: Process = p
    while True:
        cls = s.__class__
        if cls is Par:
            nf = getattr(s, slot, None)
            if nf is not None:
                if not _usable(nf, slot):
                    return None
                s = nf
                break
            left: list[Process] = []
            if not _gather(s.left, slot, collapse, left):
                return None
            levels.append(s)
            lefts.append(left)
            s = s.right
        elif cls is Match:
            s = s.then if s.left == s.right else s.orelse
        elif cls is Restrict:
            return None
        else:
            s = getattr(s, slot, None) or _normalize(s, collapse)
            if s.__class__ is not Par and s.__class__ is not Restrict:
                break
    while levels:
        left = lefts[-1]
        if left:
            c = left[0]
            if len(left) > 1 or c.__class__ is Par:
                break
            if s is not NIL:
                k = _stable_fingerprint(c)
                hk = _stable_fingerprint(s.left if s.__class__ is Par else s)
                if not (k < hk or (k == hk and not collapse)):
                    break
                s = Par(c, s)
                setattr(s, slot, s)
            else:
                s = c
        setattr(levels.pop(), slot, s)
        lefts.pop()
    if not levels:
        return s
    new: list[Process] = []
    for left in lefts:
        for q in left:
            if q.__class__ is Par:
                new.extend(_spine(q))
            else:
                new.append(q)
    new.sort(key=_stable_fingerprint)
    built: list[Process] = []
    last = None
    for c in new:
        k = _stable_fingerprint(c)
        while s is not NIL:
            head, rest = (s.left, s.right) if s.__class__ is Par else (s, NIL)
            hk = _stable_fingerprint(head)
            if k <= hk:
                break
            if not (collapse and hk == last):
                built.append(head)
            last, s = hk, rest
        if not (collapse and k == last):
            built.append(c)
        last = k
    if collapse and s is not NIL:
        head, rest = (s.left, s.right) if s.__class__ is Par else (s, NIL)
        if _stable_fingerprint(head) == last:
            s = rest
    if s is NIL:
        if not built:
            setattr(p, slot, NIL)
            return NIL
        s = built.pop()
    for c in reversed(built):
        s = Par(c, s)
        setattr(s, slot, s)
    setattr(p, slot, s)
    return s


def _normalize_composition(p: Process, collapse: bool) -> Process:
    """Normalize a parallel composition with restrictions hoisted on top.

    Produces ``nu _h0 .. nu _hk (q1 || ... || qn)`` with: unused
    restrictions dropped (law h), a binder private to one component
    pushed into it (law j, :func:`_push`), components alpha-canonical
    and sorted (laws c, d), nil components dropped (law b), and the
    binders two or more components share hoisted on top and named by
    first use (:func:`_hoist`).  Collapse mode merges identical
    components, and pushes again until no more merge.

    A spine whose walk reaches no restriction is a sorted multiset of
    components, made by :func:`_merge_spine` from its longest suffix
    already in normal form.  Only a spine that reaches a restriction goes
    through the hoisting walk below, which takes the components of every
    sub-spine in normal form off that spine instead of walking into it.
    """
    if isinstance(p, Par):
        merged = _merge_spine(p, collapse)
        if merged is not None:
            return merged
    slot = "_nf2" if collapse else "_nf"
    binders: list[Name] = []
    components: list[Process] = []
    # Any free name of the whole composition may occur in a sibling not yet
    # collected, so every hoisted binder must avoid all of them (plus the
    # binders already hoisted) or hoisting (law j) would capture.
    avoid_base = set(free_names(p))

    def collect(q: Process) -> None:
        if isinstance(q, Restrict):
            name, body = q.name, q.body
            if name in avoid_base or name in binders:
                new = fresh_name(avoid_base | set(binders) | free_names(body),
                                 hint=name)
                body = apply_subst(body, {name: new})
                name = new
            binders.append(name)
            collect(body)
        elif isinstance(q, Par):
            if getattr(q, slot, None) is q:
                components.extend(_spine(q))
            else:
                collect(q.left)
                collect(q.right)
        elif isinstance(q, Match):
            collect(q.then if q.left == q.right else q.orelse)
        else:
            nq = _normalize(q, collapse)
            if isinstance(nq, (Par, Restrict)):
                collect(nq)
            elif not isinstance(nq, Nil):
                components.append(nq)

    collect(p)
    while True:
        if collapse:
            # Identical components first: a binder that only duplicates
            # share is private once they merge.
            components = list(dict.fromkeys(components))
        # Push every binder used by exactly ONE component back inside it:
        # self-contained components compare equal across states, which
        # recognises duplicated "garbage" fragments (dead sessions, spent
        # emitters) as identical.
        comp_free = [free_names(c) for c in components]
        usage = {b: [i for i, fns in enumerate(comp_free) if b in fns]
                 for b in binders}
        for i, comp in enumerate(components):
            mine = [b for b in binders if usage[b] == [i]]
            if mine:
                components[i] = _push(mine, comp, collapse)
        # Garbage fragments may be alpha-equal once their privates moved
        # in; merging them may leave another binder private.
        if not collapse or len(set(components)) == len(components):
            break
    shared = [b for b in binders if len(usage[b]) > 1]
    if any(_body(c).__class__ is Par for c in components):
        # A sum whose summands merged once their binders moved in is one
        # composition: spread it out among the others.
        out = _normalize(_restrict(shared, _rebuild(components, Par, NIL)),
                         collapse)
    elif shared:
        out = _hoist(components, shared, collapse)
    elif not components:
        out = NIL
    else:
        # Law (h) dropped every other binder: a sorted multiset of
        # components, each of its suffixes its own normal form, as the
        # merge builds them.
        components.sort(key=_stable_fingerprint)
        out = components[-1]
        for c in reversed(components[:-1]):
            out = Par(c, out)
            setattr(out, slot, out)
    setattr(p, slot, out)
    return out


def _body(c: Process) -> Process:
    """*c* without the restrictions on top of it."""
    while c.__class__ is Restrict:
        c = c.body
    return c


def _push(mine: list[Name], comp: Process, collapse: bool) -> Process:
    """The normal form of the component *comp* under the binders *mine*,
    each free in it (law j in reverse).

    Over a sum, each summand takes the binders it uses (axiom R2, then
    law h) and the sum is normalized again, so no normal form restricts
    a choice.  Over a component already under restrictions, as one
    taken off a memoized spine is, the binders join its own.  Either way
    they nest by first free occurrence, not in the order they came in.
    """
    if comp.__class__ is Sum:
        return _normalize(_rebuild(
            [_restrict([b for b in mine if b in free_names(q)], q)
             for q in _flatten(comp, Sum)], Sum, NIL), collapse)
    binders = list(mine)
    while comp.__class__ is Restrict:
        binders.append(comp.name)
        comp = comp.body
    order = free_occurrence_order(comp)
    return canonical_alpha(_restrict(sorted(binders, key=order.index), comp))


#: Prefix of the names of hoisted restrictions (``_h0``, ``_h1``, ...).
#: The parser rejects it, and ``canonical_alpha`` names binders ``_v<i>``,
#: so no component binds one.
HOISTED_PREFIX = "_h"

#: Stands for every binder not yet named in a walk blind to them.
_HOLE = "_hole"


def _orders(parts: list[Process], holes: frozenset[Name],
            fill: dict[Name, Name], names: list[Name],
            context: list[Process], collapse: bool
            ) -> list[tuple[list[int], dict[Name, Name]]]:
    """The least orders of *parts* read blind to the binders *holes*,
    each with *fill* extended by the binders it names: a binder is given
    the next of *names* when the order first uses it (:func:`_first_uses`).

    A part's key is the fingerprint of its normal form with each binder
    read as its name in *fill*, or, unnamed, as one hole shared by all,
    so the spelling and nesting of the binders do not show in it.  The
    parts are sorted by the key with no binder named; parts that tie are
    taken one at a time, least first by the key with the binders named
    so far, then with their own binders named.  Picks that tie on both
    are each tried, and the least key sequences win, as pairs ``(order,
    fill)``.  A pick is not tried when it is a symmetric image of one
    that is: the names walks from both give define a renaming of the
    binders, and when that maps *parts* and *context* onto themselves,
    both picks lead to the same keys.  The result is a function of
    *parts*, *context* and *fill*, and is kept when normalized again.
    """
    hidden = [holes & free_names(c) for c in parts]

    def key(i: int, fill: dict[Name, Name]) -> bytes:
        if not hidden[i]:
            return _stable_fingerprint(parts[i])
        return _stable_fingerprint(_normalize(apply_subst(
            parts[i], {b: fill.get(b, _HOLE) for b in hidden[i]}), collapse))

    blind = [key(i, fill) for i in range(len(parts))]
    order = sorted(range(len(parts)), key=blind.__getitem__)

    def walk(pos: int, block: list[int], fill: dict[Name, Name],
             picked: list[int], trace: list | None, first: bool = False
             ) -> list[tuple[list[int], dict[Name, Name]]]:
        # From *pos* in *order*, with *block* left of the current run of
        # equal blind keys; *first* takes the first of tied picks.
        while pos < len(order) or block:
            if not block:
                end = pos + 1
                while (end < len(order)
                       and blind[order[end]] == blind[order[pos]]):
                    end += 1
                block, pos = order[pos:end], end
            tied = block
            if len(tied) > 1:
                held = [key(i, fill) for i in tied]
                low = min(held)
                tied = [i for i, k in zip(tied, held) if k == low]
            ways = [(i, f) for i in tied
                    for f in _first_uses(parts[i], holes, fill, names,
                                         context, collapse)]
            if len(ways) > 1:
                named = [key(i, f) for i, f in ways]
                low = min(named)
                ways = [w for w, k in zip(ways, named) if k == low]
                ways = ways[:1] if first else unlike(ways, pos, block, fill)
            i, f = ways[0]
            if trace is not None:
                trace.append((key(i, fill), key(i, f)))
            if len(ways) == 1:
                block = [j for j in block if j != i]
                picked.append(i)
                fill = f
                continue
            best: list | None = None
            found: list[tuple[list[int], dict[Name, Name]]] = []
            for i, f in ways:
                sub: list = []
                got = walk(pos, [j for j in block if j != i], f,
                           picked + [i], sub)
                if best is None or sub < best:
                    best, found = sub, got
                elif sub == best:
                    found += got
            if trace is not None and best is not None:
                trace += best
            return found
        return [(picked, fill)]

    def unlike(ways: list[tuple[int, dict[Name, Name]]], pos: int,
               block: list[int], fill: dict[Name, Name]
               ) -> list[tuple[int, dict[Name, Name]]]:
        # The tied *ways*, less each symmetric image of one kept: first
        # by the names the two picks give, then by those of the walks
        # that go on from them.
        def done(i: int, f: dict[Name, Name]) -> dict[Name, Name]:
            return walk(pos, [j for j in block if j != i], f, [], None,
                        True)[0][1]

        kept: list[list] = []
        for i, f in ways:
            ahead = None
            for rep in kept:
                j, g = rep[0], rep[1]
                if _symmetric(g, f, fill, parts[j], parts[i], parts, context,
                              collapse):
                    break
                if rep[2] is None:
                    rep[2] = done(j, g)
                if ahead is None:
                    ahead = done(i, f)
                if _symmetric(rep[2], ahead, fill, parts[j], parts[i], parts,
                              context, collapse):
                    break
            else:
                kept.append([i, f, ahead])
        return [(i, f) for i, f, _ in kept]

    return walk(0, [], dict(fill), [], None)


def _symmetric(mine: dict[Name, Name], theirs: dict[Name, Name],
               fill: dict[Name, Name], part: Process, image: Process,
               parts: list[Process], context: list[Process],
               collapse: bool) -> bool:
    """Whether the renaming of the binders that *mine* names beyond
    *fill* to those *theirs* gives the same names (a permutation, each
    chain closed) maps *part* onto *image*, and *parts* and *context*
    onto themselves."""
    if sorted(n for b, n in mine.items() if b not in fill) != \
            sorted(n for b, n in theirs.items() if b not in fill):
        return False
    named_by = {n: b for b, n in theirs.items()}
    rename = {b: named_by[n] for b, n in mine.items() if b not in fill}
    back = {v: b for b, v in rename.items()}
    for b in list(rename.values()):
        if b not in rename:
            end = b
            while end in back:
                end = back[end]
            rename[b] = end

    def norm(q: Process) -> bytes:
        return _stable_fingerprint(_normalize(q, collapse))

    def onto(qs: list[Process]) -> bool:
        return (sorted(norm(apply_subst(q, rename)) for q in qs)
                == sorted(map(norm, qs)))

    return (norm(apply_subst(part, rename)) == norm(image) and onto(parts)
            and (context is parts or onto(context)))


def _first_uses(c: Process, holes: frozenset[Name], fill: dict[Name, Name],
                names: list[Name], context: list[Process], collapse: bool
                ) -> list[dict[Name, Name]]:
    """*fill* extended by the binders of *holes* free in the part *c* and
    unnamed in *fill*, each named as a walk blind to them first meets
    it; one extension per least way to walk *c*.

    A prefix or a recursion is walked in its own order (free-occurrence
    order).  The summands of a sum and the components of a composition,
    under any restrictions of its own (read as holes), were sorted while
    the binders were still spelled as written, so the walk takes them in
    their least orders (:func:`_orders`) instead.
    """
    todo = holes & free_names(c)
    if todo <= fill.keys():
        return [fill]
    body, inner = c, set()
    while body.__class__ is Restrict:
        inner.add(body.name)
        body = body.body
    cls = body.__class__
    if cls is Sum or cls is Par:
        blank = {b: _HOLE for b in inner}
        parts = [_normalize(apply_subst(q, blank), collapse)
                 for q in _flatten(body, cls)]
        return list({tuple(f.items()): f for _, f in _orders(
            parts, holes - inner, fill, names, context, collapse)}.values())
    fill = dict(fill)
    for x in free_occurrence_order(c):
        if x in todo and x not in fill:
            fill[x] = names[len(fill)]
    return [fill]


def _hoist(components: list[Process], shared: list[Name],
           collapse: bool) -> Process:
    """``nu x1 .. nu xk (q1 || ... || qn)`` over the normalized
    *components*, each binder of *shared* free in two or more of them.

    The components are put in their least order blind to the binders
    (:func:`_orders`), which names them ``_h0``, ``_h1``, ... as it meets
    them, skipping the names free in the body: a component binds only
    ``_v`` names, so none binds or captures one.  Each component that
    holds a binder is normalized again under those names.  The result is
    a function of the components, whatever their order and the spelling
    and order of the binders, and normalizes to itself.
    """
    binder_set = frozenset(shared)
    free = frozenset().union(*map(free_names, components)) - binder_set
    names = [n for n in (f"{HOISTED_PREFIX}{i}"
                         for i in range(len(shared) + len(free)))
             if n not in free][:len(shared)]
    ordered, mapping = _orders(components, binder_set, {}, names, components,
                               collapse)[0]
    out = _rebuild([_normalize(apply_subst(components[i], mapping), collapse)
                    if binder_set & free_names(components[i])
                    else components[i] for i in ordered], Par, NIL)
    return _restrict(names, out)


def _restrict(binders: list[Name], p: Process) -> Process:
    """``nu b1 .. nu bk p`` over *binders*, the first outermost."""
    for b in reversed(binders):
        p = Restrict(b, p)
    return p
