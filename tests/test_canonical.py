"""Tests for structural canonical forms (state-identity layer).

The key soundness property: canonicalization preserves one-step behaviour —
``p`` and ``canonical_state(p)`` have the same barbs, the same discards and
matching transition sets modulo re-canonicalization of the targets.
"""

import functools
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import explore
from repro.core import syntax
from repro.core.actions import TAU
from repro.core.cache import clear_caches
from repro.core.canonical import (
    _flatten,
    _normalize,
    _rebuild,
    _spine,
    _stable_fingerprint,
    canonical_state,
    canonical_state_collapsed,
)
from repro.core.discard import discards
from repro.core.freenames import free_names, free_occurrence_order
from repro.core.names import fresh_name
from repro.core.parser import parse
from repro.core.pretty import pretty
from repro.core.reduction import barbs
from repro.core.semantics import input_continuations, step_transitions
from repro.core.substitution import alpha_eq, apply_subst, canonical_alpha
from repro.core.syntax import (
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
    iter_subterms,
)
from tests.strategies import finite_processes, processes0, processes1


class TestStructuralLaws:
    def test_par_nil_dropped(self):
        assert canonical_state(parse("a! | 0")) == canonical_state(parse("a!"))

    def test_par_commutative(self):
        assert canonical_state(parse("a! | b!")) == canonical_state(parse("b! | a!"))

    def test_par_associative(self):
        assert canonical_state(parse("(a! | b!) | c!")) == \
            canonical_state(parse("a! | (b! | c!)"))

    def test_sum_laws(self):
        assert canonical_state(parse("a! + 0")) == canonical_state(parse("a!"))
        assert canonical_state(parse("a! + b!")) == canonical_state(parse("b! + a!"))
        assert canonical_state(parse("a! + a!")) == canonical_state(parse("a!"))
        assert canonical_state(parse("(a! + b!) + c!")) == \
            canonical_state(parse("a! + (b! + c!)"))

    def test_unused_restriction_dropped(self):
        assert canonical_state(parse("nu x a!")) == canonical_state(parse("a!"))

    def test_restriction_reorder(self):
        assert canonical_state(parse("nu x nu y (x<y>)")) == \
            canonical_state(parse("nu y nu x (x<y>)"))
        # every part reads _hole<_hole> blind to the binders: the names a
        # pick gives tell them apart, not the order the binders nest in
        for body in ("x<x> | x<y> | y<x>", "x<x> + x<y> + y<x>",
                     "(x<x> + x<y> + y<x>) | x! | y!"):
            assert canonical_state(parse(f"nu x nu y ({body})")) == \
                canonical_state(parse(f"nu y nu x ({body})"))

    def test_scope_extrusion(self):
        assert canonical_state(parse("(nu x x<a>) | b!")) == \
            canonical_state(parse("nu x (x<a> | b!)"))

    def test_scope_extrusion_no_capture(self):
        # hoisting nu x over a sibling that uses x free must rename
        p = parse("(nu x x<a>) | x!")
        c = canonical_state(p)
        assert free_names(c) == {"a", "x"}
        assert barbs(c) == barbs(p)

    def test_hoisted_binder_tie_is_order_independent(self):
        # three components tie on the name-blind key and on every key with
        # the names given so far; the walk that goes on from each decides.
        # A rotation of the binders maps the cycle onto itself, so the
        # three tails are alpha-variants.
        forms = {canonical_state(parse(f"nu x nu y nu z ({body} | {tail})"))
                 for body in ("x<y> | y<z> | z<x>", "y<z> | x<y> | z<x>",
                              "z<x> | y<z> | x<y>")
                 for tail in ("a<x>", "a<y>", "a<z>")}
        assert len(forms) == 1

    def test_match_resolved(self):
        assert canonical_state(parse("[a=a]{b!}{c!}")) == canonical_state(parse("b!"))
        assert canonical_state(parse("[a=b]{b!}{c!}")) == canonical_state(parse("c!"))

    def test_alpha_quotient(self):
        assert canonical_state(parse("nu x x<a>")) == canonical_state(parse("nu y y<a>"))
        # a binder pushed into a sum goes to its summands, and one hoisted
        # over it is named blind to its spelling
        for body in ("{0}<{0}> + {0}<b>", "({0}<{0}> + {0}<b>) | {0}!"):
            assert canonical_state(parse(f"nu x ({body.format('x')})")) \
                == canonical_state(parse(f"nu y ({body.format('y')})"))

    def test_does_not_touch_continuations(self):
        # under a prefix, structure is preserved (only alpha-normalised)
        p = parse("a!.(0 | b!)")
        c = canonical_state(p)
        assert c == canonical_alpha(p)


@given(processes1)
@example(parse("nu x (x<x> + x<b>)"))
@example(parse("nu y (y<y> + y<b>)"))
@example(parse("nu x ((x<x> + x<b>) | x!)"))
@example(parse("nu y ((y<y> + y<b>) | y!)"))
# summands that normalize to a sum, and a composition in a sum
@example(parse("(nu z (y(w).w<b> + y<y>)) + tau"))
@example(parse("nu y (a! + (y<y> | y<b>))"))
# a binder that only duplicates share, private once they collapse
@example(parse("nu z nu y nu x (x<y> | x<z>)"))
def test_idempotent(p):
    assert canonical_state(canonical_state(p)) == canonical_state(p)
    assert canonical_state_collapsed(canonical_state_collapsed(p)) == \
        canonical_state_collapsed(p)


@given(processes1)
def test_preserves_free_names_of_behaviour(p):
    # canonicalization may drop unused restrictions but never frees or
    # invents free names
    assert free_names(canonical_state(p)) <= free_names(p)


@given(processes1)
def test_preserves_barbs_and_discards(p):
    c = canonical_state(p)
    assert barbs(c) == barbs(p)
    for a in sorted(free_names(p) | {"probe"}):
        assert discards(c, a) == discards(p, a)


def _canonical_moves(p):
    moves = set()
    for act, target in step_transitions(p):
        if act is TAU:
            moves.add((TAU, canonical_state(target)))
        else:
            # normalise binder names of bound outputs through alpha on a
            # wrapper: compare (chan, objects-with-binder-positions)
            key = (act.chan, tuple(
                ("?", act.binders.index(o)) if o in act.binders else o
                for o in act.objects))
            moves.add((key, canonical_state(_rebind(target, act))))
    return moves


def _rebind(target, act):
    from repro.core.syntax import Restrict
    q = target
    for b in reversed(act.binders):
        q = Restrict(b, q)
    return q


@given(processes0)
def test_transitions_preserved_nullary(p):
    """p and canonical_state(p) have matching step transitions modulo
    canonicalization (experiment T3 cross-check)."""
    assert _canonical_moves(p) == _canonical_moves(canonical_state(p))


@given(processes1)
def test_transitions_preserved_monadic(p):
    assert _canonical_moves(p) == _canonical_moves(canonical_state(p))


@given(processes1)
def test_input_continuations_preserved(p):
    c = canonical_state(p)
    for a in sorted(free_names(p)):
        for v in ("a", "w"):
            lhs = {canonical_state(q) for q in input_continuations(p, a, (v,))}
            rhs = {canonical_state(q) for q in input_continuations(c, a, (v,))}
            assert lhs == rhs


# -- memoized parts of canonical forms ---------------------------------------

def _oracle_occurrence_order(p):
    """Free names of *p* by first occurrence, as a plain pre-order walk."""
    seen = []

    def note(name, shadow):
        if name not in shadow and name not in seen:
            seen.append(name)

    def walk(q, shadow):
        if isinstance(q, Nil):
            return
        if isinstance(q, Tau):
            walk(q.cont, shadow)
        elif isinstance(q, Input):
            note(q.chan, shadow)
            walk(q.cont, shadow | frozenset(q.params))
        elif isinstance(q, Output):
            note(q.chan, shadow)
            for a in q.args:
                note(a, shadow)
            walk(q.cont, shadow)
        elif isinstance(q, Restrict):
            walk(q.body, shadow | {q.name})
        elif isinstance(q, Match):
            note(q.left, shadow)
            note(q.right, shadow)
            walk(q.then, shadow)
            walk(q.orelse, shadow)
        elif isinstance(q, (Sum, Par)):
            walk(q.left, shadow)
            walk(q.right, shadow)
        elif isinstance(q, Rec):
            for a in q.args:
                note(a, shadow)
            walk(q.body, shadow | frozenset(q.params))
        else:  # Ident
            for a in q.args:
                note(a, shadow)

    walk(p, frozenset())
    return tuple(seen)


def _oracle_alpha(p):
    """canonical_alpha as one plain walk numbering binders in pre-order,
    skipping the indices of ``_v`` names free in *p*."""
    taken = {int(n[2:]) for n in free_names(p)
             if n.startswith("_v") and n[2:].isdigit()}
    count = [0]

    def fresh(names):
        out = []
        while len(out) < len(names):
            if count[0] not in taken:
                out.append(f"_v{count[0]}")
            count[0] += 1
        return tuple(out)

    def walk(q, env):
        def r(name):
            return env.get(name, name)

        if isinstance(q, Nil):
            return q
        if isinstance(q, Tau):
            return Tau(walk(q.cont, env))
        if isinstance(q, Input):
            params = fresh(q.params)
            return Input(r(q.chan), params,
                         walk(q.cont, {**env, **dict(zip(q.params, params))}))
        if isinstance(q, Output):
            return Output(r(q.chan), tuple(map(r, q.args)), walk(q.cont, env))
        if isinstance(q, Restrict):
            (name,) = fresh((q.name,))
            return Restrict(name, walk(q.body, {**env, q.name: name}))
        if isinstance(q, Match):
            return Match(r(q.left), r(q.right), walk(q.then, env),
                         walk(q.orelse, env))
        if isinstance(q, (Sum, Par)):
            return type(q)(walk(q.left, env), walk(q.right, env))
        raise TypeError(type(q).__name__)  # no Rec/Ident in the strategies

    return walk(p, {})


def _warm(p):
    """Canonicalise every subterm of *p* inside contexts that shift its
    binder numbering (largest shift first), with and without binding its
    free names."""
    for s in set(iter_subterms(p)):
        wrapped = [Input("c", tuple(f"w{i}" for i in range(k)), s)
                   for k in (5, 3, 2, 1)]
        wrapped += [Input("c", (n,), s) for n in sorted(free_names(s))]
        for w in wrapped + [s]:
            canonical_alpha(w)
            canonical_state(Par(w, s))
            canonical_state_collapsed(Par(s, Par(w, s)))


@settings(max_examples=60, deadline=None)
@given(processes1)
def test_canonical_forms_independent_of_memo_state(p):
    clear_caches()
    cold = parse(pretty(p))
    expected = (canonical_state(cold), canonical_alpha(cold),
                canonical_state_collapsed(cold))
    clear_caches()
    warm = parse(pretty(p))
    _warm(warm)
    assert (canonical_state(warm), canonical_alpha(warm),
            canonical_state_collapsed(warm)) == expected
    assert canonical_alpha(warm) == _oracle_alpha(warm)


def _own_normal_forms(slot):
    """The spine nodes memoized as their own normal form in *slot*."""
    return [q for q in syntax._INTERN.values()
            if isinstance(q, Par) and getattr(q, slot, None) is q]


def test_spine_slots_are_purged():
    """The merge memoizes every spine node it builds as its own normal
    form, in ``_nf``/``_nf2``; purging one slot leaves the other, and
    ``clear_caches`` purges both."""
    p = parse("c! | (b?.c! | a!) | (d! | [a=a]{b! | 0}{0})")

    def fill():
        canonical_state(p)
        canonical_state_collapsed(p)
        assert _own_normal_forms("_nf") and _own_normal_forms("_nf2")

    fill()
    syntax.purge_node_caches(("_nf",))
    assert not _own_normal_forms("_nf") and _own_normal_forms("_nf2")
    fill()
    syntax.purge_node_caches(("_nf2",))
    assert _own_normal_forms("_nf") and not _own_normal_forms("_nf2")
    fill()
    clear_caches()
    assert not _own_normal_forms("_nf") and not _own_normal_forms("_nf2")


@given(processes1)
def test_binder_free_canonical_state_is_its_own_normal_form(p):
    """A canonical state that binds nothing at top level normalizes to
    itself, so a successor can keep any suffix of its spine."""
    for collapse, canon in ((False, canonical_state),
                            (True, canonical_state_collapsed)):
        c = canon(p)
        if not isinstance(c, Restrict):
            assert _normalize(c, collapse) is c


def _fresh_copy(p):
    """*p* rebuilt in a cleared kernel: nothing on it is memoized."""
    clear_caches()
    return _reinterned(p)


@settings(max_examples=300, deadline=None)
@given(processes1)
# hoisted binders whose components tie on the name-blind key
@example(parse("nu x nu y (a<x> | a<y> | x! | y!)"))
@example(parse("nu x nu y (a<y> | a<x> | x<y> | y<x>)"))
@example(parse("nu x nu y nu z (x<y> | y<z> | z<x> | a<x>)"))
@example(parse("nu x nu y (x<x> | x<y> | y<x>)"))
@example(parse("nu y nu x (x<x> | x<y> | y<x>)"))
# binders pushed into a sum, and a sum under a restricted summand
@example(parse("nu x nu y (x<x> + x<y> + y<x>)"))
@example(parse("nu y nu z ((nu x (x<y> + x<z>)) | y<a> | z<b>)"))
def test_canonical_state_is_its_own_normal_form(p):
    """Every canonical state, restrictions on top included, normalizes to
    itself from a cleared kernel, in both collapse modes: no whole-state
    pass renames it afterwards."""
    for collapse, canon in ((False, canonical_state),
                            (True, canonical_state_collapsed)):
        c = _fresh_copy(canon(p))
        assert _normalize(c, collapse) is c
        assert canon(c) is c


def _nameless(p, env=()):
    """*p* with each bound name replaced by its binder's distance (de
    Bruijn), free names kept: alpha-variants, and only they, are equal."""
    def r(name):
        for i, bound in enumerate(env):
            if name == bound:
                return i
        return name

    if isinstance(p, Nil):
        return ()
    if isinstance(p, Tau):
        return ("tau", _nameless(p.cont, env))
    if isinstance(p, Input):
        inner = tuple(reversed(p.params)) + env
        return ("in", r(p.chan), len(p.params), _nameless(p.cont, inner))
    if isinstance(p, Output):
        return ("out", r(p.chan), tuple(map(r, p.args)),
                _nameless(p.cont, env))
    if isinstance(p, Restrict):
        return ("nu", _nameless(p.body, (p.name,) + env))
    if isinstance(p, Match):
        return ("match", r(p.left), r(p.right), _nameless(p.then, env),
                _nameless(p.orelse, env))
    return (type(p).__name__, _nameless(p.left, env),
            _nameless(p.right, env))


#: Monadic terms whose free names and binders include canonical ``_v``
#: names, as extrusion leaves them in a state (the parser rejects them).
_V_NAMES = ("_v0", "_v1", "a")
v_processes = finite_processes(arity=1, free_pool=_V_NAMES,
                               bound_pool=("x", "_v0", "_v1", "_v2"))
v_processes_no_match = finite_processes(
    arity=1, free_pool=_V_NAMES, bound_pool=("x", "_v0", "_v1", "_v2"),
    allow_match=False)


@given(v_processes)
def test_canonical_alpha_captures_no_free_name(p):
    c = canonical_alpha(p)
    assert free_names(c) == free_names(p)
    assert _nameless(c) == _nameless(p)
    assert canonical_alpha(c) is c


@given(v_processes_no_match)
def test_canonical_state_captures_no_free_name(p):
    """Without a match to resolve, the laws keep every free name."""
    for canon in (canonical_state, canonical_state_collapsed):
        assert free_names(canon(p)) == free_names(p)


@given(v_processes)
def test_transitions_preserved_with_free_canonical_names(p):
    assert _canonical_moves(p) == _canonical_moves(canonical_state(p))


class TestFreeCanonicalNames:
    """A ``_v`` name free in a term is never captured by a canonical
    binder (extrusion frees such names from canonical states)."""

    def test_canonical_alpha_skips_a_free_name(self):
        bound = Input("_v0", ("x",), Output("r", ("x",), NIL))
        free = Input("_v0", ("x",), Output("r", ("_v0",), NIL))
        assert canonical_alpha(bound) != canonical_alpha(free)
        assert not alpha_eq(bound, free)
        assert canonical_alpha(free) == \
            Input("_v0", ("_v1",), Output("r", ("_v0",), NIL))

    def test_extruded_name_is_not_captured_by_a_receiver(self):
        # The bound output frees _v0; the receiver's own binder must not
        # become it, or the match would hold and c! would be reachable.
        ex = explore("nu x a<x>.(b<d> | b(y).[y=x]{c!})",
                     close_binders=False)
        assert ex.n_states == 3
        assert not any("c" in barbs(s) for s in ex.lts.states)

    def test_collapse_keeps_a_component_that_is_not_a_duplicate(self):
        state = Restrict("_v0", Par(
            Input("_v0", ("_v1",), Output("_v1", (), NIL)),
            Par(Input("_v0", ("_v2",), Output("_v0", (), NIL)),
                Output("_v0", ("s",), NIL))))
        for canon in (canonical_state, canonical_state_collapsed):
            assert len(list(_spine(canon(state).body))) == 3


@given(processes1)
def test_free_occurrence_order_matches_preorder_walk(p):
    for q in iter_subterms(p):
        assert free_occurrence_order(q) == _oracle_occurrence_order(q)


def test_free_occurrence_order_under_rec():
    p = parse("rec X(x := a, y := b). x(z).(y<z> | X<y, x>) | c!")
    assert free_occurrence_order(p) == _oracle_occurrence_order(p) \
        == ("a", "b", "c")


# -- the sub-spine memo against the walk it replaces -------------------------

def _key(q):
    return _stable_fingerprint(canonical_alpha(q))


def _fresh(prefix, parts, binders):
    """``<prefix>0``, ``<prefix>1``, ..., one per binder, skipping the
    parts' other free names."""
    free = set().union(*map(free_names, parts)) - set(binders)
    return [n for n in (f"{prefix}{i}"
                        for i in range(len(binders) + len(free)))
            if n not in free][:len(binders)]


def _reference_key(q, fill, holes, collapse):
    """The fingerprint of *q*'s reference normal form, each binder of
    *holes* it holds read as its name in *fill*, or as ``_hole``."""
    return _stable_fingerprint(_reference_normalize(apply_subst(
        q, {b: fill.get(b, "_hole") for b in set(holes) & free_names(q)}),
        collapse))


def _reference_least(parts, holes, fill, names, collapse):
    """By brute force: every pair (order, fill) whose walk of *parts*
    has the least key sequence.  A walk goes through the parts in an
    order; each part names the binders of *holes* it holds and *fill*
    does not, from *names* in turn (:func:`_reference_uses`), and adds
    its key blind to the binders, with the names given before it, and
    with its own.  Only orders whose blind keys do not decrease can be
    least, so only those are tried."""
    blind = [_reference_key(q, fill, holes, collapse) for q in parts]
    groups = [[i for i in range(len(parts)) if blind[i] == k]
              for k in sorted(set(blind))]

    def walks(order, given):
        if not order:
            yield [], given
            return
        q = parts[order[0]]
        for f in _reference_uses(q, holes, given, names, collapse):
            step = (blind[order[0]], _reference_key(q, given, holes, collapse),
                    _reference_key(q, f, holes, collapse))
            for keys, g in walks(order[1:], f):
                yield [step] + keys, g

    best, found = None, []
    for perms in itertools.product(*map(itertools.permutations, groups)):
        order = [i for perm in perms for i in perm]
        for keys, f in walks(order, dict(fill)):
            if best is None or keys < best:
                best, found = keys, [(order, f)]
            elif keys == best:
                found.append((order, f))
    return found


def _reference_uses(c, holes, fill, names, collapse):
    """Every way *c* extends *fill* with the binders of *holes* it holds
    unnamed: in free-occurrence order, or for a sum or a composition
    (under any restrictions, read as holes) as every least walk of its
    summands or components names them."""
    todo = set(holes) & free_names(c)
    if todo <= set(fill):
        return [fill]
    body, inner = c, set()
    while isinstance(body, Restrict):
        inner.add(body.name)
        body = body.body
    if isinstance(body, (Sum, Par)):
        blank = {b: "_hole" for b in inner}
        parts = [_reference_normalize(apply_subst(q, blank), collapse)
                 for q in _flatten(body, type(body))]
        fills = {}
        for _, f in _reference_least(parts, set(holes) - inner, fill, names,
                                     collapse):
            fills.setdefault(tuple(f.items()), f)
        return list(fills.values())
    fill = dict(fill)
    for n in free_occurrence_order(c):
        if n in todo and n not in fill:
            fill[n] = names[len(fill)]
    return [fill]


def _restricted(binders, p):
    for b in reversed(binders):
        p = Restrict(b, p)
    return p


def _reference_push(mine, comp, collapse):
    """``nu mine comp`` normalized: over a sum, each binder on the
    summands that use it (axiom R2, then law h); otherwise with the
    component's own restrictions, all nested by first free occurrence."""
    if isinstance(comp, Sum):
        return _reference_normalize(_rebuild(
            [_restricted([b for b in mine if b in free_names(q)], q)
             for q in _flatten(comp, Sum)], Sum, NIL), collapse)
    binders = list(mine)
    while isinstance(comp, Restrict):
        binders.append(comp.name)
        comp = comp.body
    order = free_occurrence_order(comp)
    return canonical_alpha(_restricted(sorted(binders, key=order.index),
                                       comp))


def _reference_normalize(p, collapse):
    """``_normalize`` by a plain walk: every spine is walked in full, and
    nothing is memoized.  Components are alpha-canonical and sorted by
    fingerprint; the binders one of them uses are pushed into it
    (:func:`_reference_push`), in collapse mode until no duplicates
    merge; binders two or more of them share are hoisted, named as the
    least walk of the components meets them (:func:`_reference_least`),
    and each component that holds one is normalized under those names."""
    if isinstance(p, (Nil, Tau, Input, Output, Rec)):
        return canonical_alpha(p)
    if isinstance(p, Match):
        return _reference_normalize(
            p.then if p.left == p.right else p.orelse, collapse)
    if isinstance(p, Sum):
        parts = []
        for q in _flatten(p, Sum):
            nq = _reference_normalize(q, collapse)
            if isinstance(nq, Sum):
                parts += _flatten(nq, Sum)
            elif not isinstance(nq, Nil):
                parts.append(nq)
        unique = sorted({canonical_alpha(q) for q in parts}, key=_key)
        if len(unique) == 1:
            return parts[0]
        return canonical_alpha(_rebuild(unique, Sum, NIL))
    binders, components = [], []
    avoid_base = set(free_names(p))

    def collect(q):
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
            collect(q.left)
            collect(q.right)
        elif isinstance(q, Match):
            collect(q.then if q.left == q.right else q.orelse)
        else:
            nq = _reference_normalize(q, collapse)
            if isinstance(nq, (Par, Restrict)):
                collect(nq)
            elif not isinstance(nq, Nil):
                components.append(nq)

    def dedup(comps):
        seen, out = set(), []
        for c in comps:
            if c not in seen:
                seen.add(c)
                out.append(c)
        return out

    collect(p)
    while True:
        if collapse:
            components = dedup(components)
        usage = {b: [i for i, c in enumerate(components)
                     if b in free_names(c)] for b in binders}
        for i, comp in enumerate(components):
            mine = [b for b in binders if usage[b] == [i]]
            if mine:
                components[i] = _reference_push(mine, comp, collapse)
        if not collapse or len(dedup(components)) == len(components):
            break
    shared = [b for b in binders if len(usage[b]) > 1]
    for c in components:
        while isinstance(c, Restrict):
            c = c.body
        if isinstance(c, Par):
            return _reference_normalize(
                _restricted(shared, _rebuild(components, Par, NIL)), collapse)
    if not shared:
        return _rebuild(sorted(components, key=_key), Par, NIL)
    names = _fresh("_h", components, shared)
    ordered, named = _reference_least(components, shared, {}, names,
                                      collapse)[0]
    return _restricted(names, _rebuild(
        [_reference_normalize(apply_subst(components[i], named), collapse)
         for i in ordered], Par, NIL))


def _reinterned(p):
    """*p* rebuilt through the intern table, which ``clear_caches``
    empties, so the contexts built from it share its nodes."""
    return type(p)(*(_reinterned(v) if isinstance(v, Process) else v
                     for v in (getattr(p, f) for f in p._fields)))


def _respelled(p):
    """An alpha-variant of *p* spelled unlike both *p* and
    ``canonical_alpha(p)``: its binders are numbered from an offset."""
    return canonical_alpha(Input("c", ("w0", "w1", "w2"), p)).cont


def _swapped(state, new):
    """Successor-shaped terms: *state* with one spine component replaced
    by *new*, every other spine node kept."""
    spine = []
    while isinstance(state, Par):
        spine.append(state)
        state = state.right
    out = []
    for i in range(len(spine) + 1):
        t = Par(new, spine[i].right) if i < len(spine) else new
        for above in reversed(spine[:i]):
            t = Par(above.left, t)
        out.append(t)
    return out


def _contexts(p, q, name):
    """*p* beside *q*, under a restriction of *name* (which may clash with
    a free name of either), and beside a sibling that hoists *name* while
    *p* and *q* may use it free; alpha-equal components spelled
    differently on both sides of a ``Par`` (which one a tie keeps);
    ``nil`` components; a match and a one-summand sum that resolve to a
    composition; and canonical states with one component swapped out."""
    hoister = Restrict(name, Par(Output(name, ("a",), NIL),
                                 Input("a", ("x",), Output(name, ("x",), NIL))))
    alias = _respelled(p)
    out = [Par(p, q), Restrict(name, Par(p, q)), Par(hoister, Par(p, q)),
           Par(Par(q, hoister), p), Restrict(name, Par(hoister, p)),
           Par(p, Par(q, alias)), Par(Par(alias, q), p),
           Par(alias, Par(p, alias)),
           Par(p, NIL), Par(NIL, Par(q, NIL)),
           Par(Match("a", "a", Par(q, p), NIL), alias),
           Par(q, Match("a", "b", NIL, Sum(Par(p, alias), NIL)))]
    for state in (canonical_state(Par(p, q)),
                  canonical_state_collapsed(Par(q, Par(p, q))),
                  _normalize(Par(p, Par(alias, q)), False)):
        for new in (q, NIL, alias, hoister):
            out += _swapped(state, new)
    return out


@settings(max_examples=150, deadline=None)
@given(processes1, processes1, st.sampled_from(("a", "b", "c", "x")))
# spines holding a restriction, one its own normal form and one not,
# beside a free occurrence of the restricted name, which hoisting renames
@example(parse("a! | nu x x!"), parse("x!"), "a")
@example(parse("(nu x x!) | a!"), parse("x!"), "a")
def test_spine_memo_matches_full_walk_in_every_context(p, q, name):
    """Sub-spines first canonicalized standalone, and the spines of
    canonical states, give the same normal and canonical forms inside
    other contexts as a full walk without any memo, in both collapse
    modes."""
    clear_caches()
    p, q = _reinterned(p), _reinterned(q)
    for s in (*iter_subterms(p), *iter_subterms(q)):
        canonical_state(s)
        canonical_state_collapsed(s)
    for ctx in _contexts(p, q, name):
        assert _normalize(ctx, False) == _reference_normalize(ctx, False)
        assert _normalize(ctx, True) == _reference_normalize(ctx, True)
        assert canonical_state(ctx) == _reference_normalize(ctx, False)
        assert canonical_state_collapsed(ctx) == \
            _reference_normalize(ctx, True)


#: Compositions whose components tie blind to the binders, so that only
#: the binders decide the order: the least walk decides, or symmetry.
BINDER_TIES = [
    "nu x nu y (x<x> | x<y> | y<x>)",
    "nu x nu y (x<y> | y<x> | x<a> | y<b>)",
    "nu x nu y nu z (x<y> | y<z> | z<x> | a<x>)",
    "nu x nu y nu z nu u nu v nu w (x<y> | y<z> | z<x> | u<v> | v<w> | w<u>)",
    "nu x nu y (x<x> + x<y> + y<x>)",
    "nu x nu y ((x<y> + y<x>) | x<a> | y<b>)",
    "nu y nu z ((nu x (x<y> + x<z>)) | y<a> | z<b>)",
    "nu y nu z ((nu x (x<y> + x<z>)) | y<z> | z<y>)",
    "nu x ((x<x> + a<x> + nu z (x<z> + a<z>)) | x(w).w<a>)",
    # compositions inside sums: their components are walked like summands
    "nu y (a! + (y<y> | y<b>))",
    "nu x nu y ((a! + (x<y> | y<c>)) | x? | y?)",
    "nu x nu y (((x<y> | y<b>) + a!) | x<a> | y?)",
    "nu x nu y ((nu z (z<x> | z<y> | x<z>)) + b! | x? | y<a>)",
]


@pytest.mark.parametrize("source", BINDER_TIES)
def test_binder_ties_match_the_brute_force_reference(source):
    """Ties that only the binders break give the form the brute-force
    reference gives, whichever way the binders are spelled and nested."""
    p = parse(source)
    names = list(_binders(p))
    forms = set()
    body = p
    while isinstance(body, Restrict):
        body = body.body
    # every nest order of up to four binders; of more, the rotations
    # and the reverse
    perms = (list(itertools.permutations(names)) if len(names) <= 4 else
             [names[k:] + names[:k] for k in range(len(names))]
             + [names[::-1]])
    for perm in perms:
        # nested in another order, and the binders renamed among
        # themselves (an alpha-variant)
        for q in (_restricted(perm, body),
                  _restricted(names, apply_subst(body,
                                                 dict(zip(perm, names))))):
            for collapse in (False, True):
                assert _normalize(q, collapse) == \
                    _reference_normalize(q, collapse)
            forms.add(canonical_state(q))
    assert len(forms) == 1


def _binders(p):
    while isinstance(p, Restrict):
        yield p.name
        p = p.body


def test_collapse_pushes_a_binder_shared_only_by_duplicates():
    # y and z move into two components that are then duplicates; once
    # they merge, x is private to what is left and moves in too
    p = parse("nu z nu y nu x (x<y> | x<z>)")
    c = canonical_state_collapsed(p)
    assert pretty(c) == "nu _v0 nu _v1 _v0<_v1>"
    assert canonical_state_collapsed(c) is c


def test_no_normal_form_restricts_a_choice():
    # axiom R2: nu x (p + q) = nu x p + nu x q, and law (h) drops the
    # binder from a summand that does not use it
    assert pretty(canonical_state(parse("nu x (x! + a<x> + b!)"))) == \
        "b! + nu _v0 a<_v0> + nu _v1 _v1!"
    # summands that merge once their binders move in leave a composition,
    # which joins its siblings
    assert canonical_state(parse(
        "nu x nu y (((x<b> | x?) + (y<b> | y?)) | c!)")) == \
        canonical_state(parse("nu x (x<b> | x? | c!)"))


_TIE_BINDERS = ("x", "y", "z")
_tie_names = st.sampled_from(_TIE_BINDERS + ("a", "b", "u"))
_tie_prefixes = st.one_of(
    st.builds(lambda c, d: Output(c, (d,), NIL), _tie_names, _tie_names),
    st.builds(lambda c, d: Input(c, ("w",), Output("w", (d,), NIL)),
              _tie_names, _tie_names))
_tie_compositions = st.lists(_tie_prefixes, min_size=2, max_size=3).map(
    lambda qs: _rebuild(qs, Par, NIL))
_tie_summands = st.one_of(_tie_prefixes, _tie_compositions,
                          _tie_compositions.map(lambda q: Restrict("u", q)))
_tie_components = st.one_of(
    _tie_prefixes,
    st.lists(_tie_summands, min_size=2, max_size=3).map(
        lambda qs: _rebuild(qs, Sum, NIL)),
    _tie_compositions.map(lambda q: Restrict("u", q)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_tie_components, min_size=1, max_size=4).map(
           lambda qs: _rebuild(qs, Par, NIL)),
       st.lists(st.sampled_from(_TIE_BINDERS), min_size=1, max_size=3,
                unique=True))
def test_restricted_sums_of_compositions_have_one_form(body, names):
    """A restricted composition whose sums hold compositions and
    restricted compositions gets one form in each collapse mode, however
    its binders nest and are spelled, and that form is its own."""
    for canon in (canonical_state, canonical_state_collapsed):
        forms = set()
        for perm in itertools.permutations(names):
            forms.add(canon(_restricted(perm, body)))
            forms.add(canon(_restricted(names, apply_subst(
                body, dict(zip(perm, names))))))
        (form,) = forms
        assert canon(form) == form


def test_wide_composition_is_linear_in_its_width():
    """A fresh binder-free composition of n components canonicalizes to
    one node whichever way it nests, building a constant number of nodes
    per component: the spine is sorted once, not re-merged per level."""
    n = 5000
    comps = [Output(f"c{i * 7919 % n}", (), NIL) if i % 2
             else Input(f"c{i}", ("x",), Output("x", (), NIL))
             for i in range(n)]
    right = comps[-1]
    for c in reversed(comps[:-1]):
        right = Par(c, right)
    left = functools.reduce(Par, comps)
    clear_caches()
    before = len(syntax._INTERN)
    assert canonical_state(right) is canonical_state(left)
    assert len(syntax._INTERN) - before <= 3 * n
