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
  extrusion of restrictions
* match resolution (rules (9)/(10) make both branches one-step-identical)
* rule (1): alpha-conversion.

Each rewrite produces a term whose transition set is identical to the
original's modulo re-canonicalization of targets — the property tests in
``tests/test_canonical.py`` check exactly that.

The transformation only touches the *active* structure of the state (the
part the next transition can see); continuations under prefixes are left
untouched apart from the final global alpha-canonicalization.

Every part is memoized on the interned nodes.  A successor built by the
parallel rules shares almost all of its spine with its source, so the
flattened, normalized components of each binder-free sub-spine are kept
in a slot (``_sp``/``_sp2``, one per collapse mode) and a new state's
spine is flattened by walking only its new ``Par`` nodes.  The memo stops
at a restriction: hoisting one renames its binder against the free names
of the whole composition and the binders hoisted before it, so only a
binder-free sub-spine flattens the same in every context.
"""

from __future__ import annotations

import hashlib

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
    purge_node_caches,
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
    ``repro.store`` key written to disk.  This digest is a pure function
    of the structure (sha256 over class names, name fields and child
    digests), memoized per interned node, so it is O(1) amortized like
    the cached hash it replaces.
    """
    got = getattr(p, "_stable", None)
    if got is None:
        h = hashlib.sha256(p.__class__.__name__.encode())
        for f in p._fields:
            v = getattr(p, f)
            h.update(_stable_fingerprint(v) if isinstance(v, Process)
                     else repr(v).encode())
            h.update(b"\x00")
        got = h.digest()
        p._stable = got
    return got


def _sort_key(p: Process) -> tuple:
    """A deterministic ordering key for sibling components.

    Sorting must be stable under alpha-variance, so the key is taken on
    the alpha-canonical form; the fingerprint makes the resulting
    orientation identical across processes (a property the persistent
    verdict store relies on).  Memoized on the node.
    """
    try:
        return p._sk
    except AttributeError:
        pass
    c = canonical_alpha(p)
    got = p._sk = (c.__class__.__name__, _stable_fingerprint(c))
    return got


def canonical_state(p: Process) -> Process:
    """The canonical representative of *p*'s structural-congruence class.

    Memoized on the interned node: exploring a state space recanonicalizes
    the same shared subterms over and over, and with hash-consing those are
    pointer-identical, so the cache hit is a slot read.
    """
    try:
        return p._canon
    except AttributeError:
        pass
    result = canonical_alpha(_normalize(p, False))
    p._canon = result
    return result


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
        return p._canon2
    except AttributeError:
        pass
    result = canonical_alpha(_normalize(p, True))
    p._canon2 = result
    return result


canonical_state.cache_clear = (  # type: ignore[attr-defined]
    lambda: purge_node_caches(("_canon", "_nf", "_sp")))
canonical_state_collapsed.cache_clear = (  # type: ignore[attr-defined]
    lambda: purge_node_caches(("_canon2", "_nf2", "_sp2")))


def _normalize(p: Process, collapse: bool) -> Process:
    # Memoized per interned node (one slot per collapse mode): sibling
    # states of an exploration share almost all of their components, so
    # normalizing a successor mostly re-reads slots.
    slot = "_nf2" if collapse else "_nf"
    try:
        return getattr(p, slot)
    except AttributeError:
        pass
    result = _normalize_uncached(p, collapse)
    setattr(p, slot, result)
    return result


def _normalize_uncached(p: Process, collapse: bool) -> Process:
    if isinstance(p, (Nil, Tau, Input, Output, Rec)):
        # Prefixes and folded recursions are atomic at the state level.
        return p
    if isinstance(p, Match):
        # Closed states have concrete names: resolve the conditional.
        return _normalize(p.then if p.left == p.right else p.orelse, collapse)
    if isinstance(p, Sum):
        parts = []
        for q in _flatten(p, Sum):
            # Summands may be restrictions, matches or nested structure;
            # law (k) hoists restrictions only at the composition layer.
            nq = _normalize(q, collapse)
            if not isinstance(nq, Nil):  # (S1)
                parts.append(nq)
        # (S2)-(S4): dedup modulo alpha, sort, right-nest.
        seen: set[Process] = set()
        unique = []
        for q in parts:
            key = canonical_alpha(q)
            if key not in seen:
                seen.add(key)
                unique.append(q)
        unique.sort(key=_sort_key)
        return _rebuild(unique, Sum, NIL)
    if isinstance(p, (Par, Restrict)):
        return _normalize_composition(p, collapse)
    raise TypeError(f"unexpected node {type(p).__name__} in closed state")


def _flatten_spine(q: Process, collapse: bool) -> tuple[Process, ...] | None:
    """The normalized components of the binder-free sub-spine *q*, in
    walk order, or ``None`` when the walk would reach a restriction.

    Memoized per interned node (one slot per collapse mode; ``None`` too).
    A spine that reaches a restriction is left to
    :func:`_normalize_composition`'s walk, because hoisting the binder
    depends on the whole composition (see the module docstring).
    """
    slot = "_sp2" if collapse else "_sp"
    try:
        return getattr(q, slot)
    except AttributeError:
        pass
    result: tuple[Process, ...] | None
    if isinstance(q, Restrict):
        result = None
    elif isinstance(q, Par):
        left = _flatten_spine(q.left, collapse)
        right = _flatten_spine(q.right, collapse)
        result = (None if left is None or right is None
                  else left + right)
    elif isinstance(q, Match):
        result = _flatten_spine(q.then if q.left == q.right else q.orelse,
                                collapse)
    else:
        nq = _normalize(q, collapse)
        if isinstance(nq, Nil):
            result = ()
        elif isinstance(nq, (Par, Restrict)):
            # Normalization exposed more structure (e.g. a sum with one
            # summand that is a composition); keep flattening.
            result = _flatten_spine(nq, collapse)
        else:
            result = (nq,)
    setattr(q, slot, result)
    return result


def _normalize_composition(p: Process, collapse: bool) -> Process:
    """Normalize a parallel composition with restrictions hoisted on top.

    Produces ``nu x1 .. nu xk (q1 || ... || qn)`` with: unused restrictions
    dropped (law h), components sorted (laws c, d), nil components dropped
    (law b), binders renamed apart and ordered by first use.

    The walk over the spine stops at every binder-free sub-spine and reads
    its components from :func:`_flatten_spine`'s memo; it walks on only
    through restrictions, whose hoisting depends on the context.  When no
    binder is hoisted at all, the components go straight from the sort
    (and the collapse) to the rebuilt spine.
    """
    binders: list[Name] = []
    components: list[Process] = []
    # Any free name of the whole composition may occur in a sibling not yet
    # collected, so every hoisted binder must avoid all of them (plus the
    # binders already hoisted) or hoisting (law j) would capture.
    avoid_base = set(free_names(p))

    def collect(q: Process) -> None:
        flat = _flatten_spine(q, collapse)
        if flat is not None:
            components.extend(flat)
            return
        if isinstance(q, Restrict):
            name, body = q.name, q.body
            if name in avoid_base or name in binders:
                new = fresh_name(avoid_base | set(binders) | free_names(body),
                                 hint=name)
                body = apply_subst(body, {name: new})
                name = new
            binders.append(name)
            collect(body)
            return
        if isinstance(q, Par):
            collect(q.left)
            collect(q.right)
            return
        if isinstance(q, Match):
            collect(q.then if q.left == q.right else q.orelse)
            return
        # A leaf whose normal form is a composition with a binder.
        collect(_normalize(q, collapse))

    collect(p)
    if not binders:
        # Nothing was hoisted: blind_key below is _sort_key, and there is
        # nothing to push back inside a component or order by occurrence.
        components.sort(key=_sort_key)
        if collapse:
            components = _dedup_alpha(components)
        return _rebuild(components, Par, NIL)
    # Push every binder used by exactly ONE component back inside it (law
    # j in reverse).  Self-contained components compare equal across
    # states regardless of which top-level binder slot their private names
    # would have occupied — essential for recognising duplicated "garbage"
    # fragments (dead sessions, spent emitters) as identical.
    usage: dict[Name, list[int]] = {}
    comp_free = [free_names(c) for c in components]
    for b in binders:
        usage[b] = [i for i, fns in enumerate(comp_free) if b in fns]
    pushed: set[Name] = set()
    for i, comp in enumerate(components):
        mine = [b for b in binders if usage[b] == [i]]
        if not mine:
            continue
        order = {n: k for k, n in enumerate(free_occurrence_order(comp))}
        mine.sort(key=lambda b: order.get(b, len(order)))
        for b in reversed(mine):
            comp = Restrict(b, comp)
        components[i] = comp
        pushed.update(mine)
    binders = [b for b in binders if b not in pushed]

    # Sort primarily by a key blind to the hoisted binder names (so that
    # alpha-variants order identically), tie-breaking on the named form for
    # determinism.  Canonicalization is an *approximation* of structural
    # congruence: imperfect identification only costs duplicate states in
    # exploration, never soundness.
    binder_set = frozenset(binders)

    def blind_key(q: Process) -> tuple:
        k = _sort_key(q)
        hidden = binder_set & free_names(q)
        if not hidden:
            return k + k
        mapping = {b: "_hole" for b in hidden}
        return _sort_key(apply_subst(q, mapping)) + k

    components.sort(key=blind_key)
    if collapse:
        components = _dedup_alpha(components)
    body = _rebuild(components, Par, NIL)
    # Drop unused binders (law h), order used ones by first free occurrence
    # in the sorted body (laws i + j make any order equivalent), so that
    # `nu x nu y` and `nu y nu x` canonicalise identically.  The body's
    # order is its components' orders in turn: the Par spine is new in
    # every state, so it is not memoized itself.
    occurrence: dict[Name, int] = {}
    for comp in components:
        for name in free_occurrence_order(comp):
            occurrence.setdefault(name, len(occurrence))
    live = sorted((b for b in binders if b in occurrence),
                  key=occurrence.__getitem__)
    out = body
    for b in reversed(live):
        out = Restrict(b, out)
    return out



def _dedup_alpha(components: list[Process]) -> list[Process]:
    """Collapse duplicate components modulo alpha, keeping first copies.

    Shared hoisted binders are free names at the component level and stay
    rigid under canonical_alpha, so components referencing *different*
    shared binders never merge; self-contained garbage fragments (whose
    privates were pushed back inside) do.
    """
    deduped: list[Process] = []
    seen_keys: set[Process] = set()
    for comp in components:
        key = canonical_alpha(comp)
        if key not in seen_keys:
            seen_keys.add(key)
            deduped.append(comp)
    return deduped
