"""Tests for capture-avoiding substitution and alpha-machinery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import clear_caches
from repro.core.freenames import bound_names, free_names, free_occurrence_order
from repro.core.names import fresh_name
from repro.core.parser import parse
from repro.core.semantics import input_continuations, step_transitions
from repro.core.substitution import (
    alpha_eq,
    apply_subst,
    canonical_alpha,
    rename_bound_apart,
    subst_ident,
    unfold_rec,
)
from repro.core.syntax import (
    NIL,
    Ident,
    Input,
    Match,
    Nil,
    Output,
    Par,
    Rec,
    Restrict,
    Sum,
    Tau,
)
from tests.strategies import (
    BOUND_NAMES,
    FREE_NAMES,
    name_substitutions,
    processes1,
)


class TestApplySubst:
    def test_simple_rename(self):
        assert apply_subst(parse("a<b>"), {"a": "c"}) == parse("c<b>")

    def test_objects_renamed(self):
        assert apply_subst(parse("a<b, b>"), {"b": "d"}) == parse("a<d, d>")

    def test_binder_shadows(self):
        # x is bound: substituting x does nothing under the binder.
        p = parse("a(x).x<b>")
        assert apply_subst(p, {"x": "c"}) == p

    def test_capture_avoided_input(self):
        # substituting b -> x under binder x must rename the binder
        p = parse("a(x).x<b>")
        q = apply_subst(p, {"b": "x"})
        # the result receives on a and then outputs the *free* x
        binder = q.params[0]
        assert binder != "x"
        assert q.cont == Output(binder, ("x",), NIL)

    def test_capture_avoided_restriction(self):
        p = parse("nu x a<x, b>")
        q = apply_subst(p, {"b": "x"})
        assert isinstance(q, Restrict)
        assert q.name != "x"
        assert q.body == Output("a", (q.name, "x"), NIL)

    def test_identity_returns_same_object(self):
        p = parse("a(x).x<b>")
        assert apply_subst(p, {"z": "w"}) is p
        assert apply_subst(p, {}) is p

    def test_match_names_substituted(self):
        p = parse("[a=b]{c!}{d!}")
        q = apply_subst(p, {"a": "b", "c": "e"})
        assert q == parse("[b=b]{e!}{d!}")

    def test_rec_args_substituted(self):
        p = parse("rec X(x := a). x?.X<x>")
        q = apply_subst(p, {"a": "b"})
        assert isinstance(q, Rec)
        assert q.args == ("b",)
        assert q.body == p.body

    def test_simultaneous_swap(self):
        p = parse("a<b>")
        assert apply_subst(p, {"a": "b", "b": "a"}) == parse("b<a>")


class TestIdentSubstitution:
    def test_subst_ident_replaces(self):
        body = Input("x", (), Ident("X", ("x",)))
        got = subst_ident(body, "X", ("x",), body)
        assert got == Input("x", (), Rec("X", ("x",), body, ("x",)))

    def test_inner_rec_shadows(self):
        inner = Rec("X", ("y",), Input("y", (), Ident("X", ("y",))), ("b",))
        got = subst_ident(inner, "X", ("x",), NIL)
        assert got == inner

    def test_unfold_rec(self):
        p = parse("rec X(x := a). x?.X<x>")
        q = unfold_rec(p)
        assert isinstance(q, Input)
        assert q.chan == "a"
        assert q.cont == Rec("X", ("x",), p.body, ("a",))

    def test_unfold_rec_twice_progresses(self):
        p = parse("rec X(x := a). x!.X<x>")
        q = unfold_rec(p)
        assert isinstance(q, Output) and q.chan == "a"
        r = unfold_rec(q.cont)
        assert isinstance(r, Output) and r.chan == "a"


    def test_subst_ident_renames_a_capturing_binder(self):
        # fn(rec) = {x}: the input parameter x of the body must not bind
        # the recursion's free x once the recursion goes under it.
        body = parse("e<x>.e(x).X<e>")
        got = subst_ident(body, "X", ("e",), body)
        assert got == parse("e<x>.e(x').(rec X(e). e<x>.e(x).X<e>)<e>")
        # Restrictions and inner rec parameters are renamed the same way.
        for src, want in (
                ("e<x>.nu x X<e>", "e<x>.nu x' (rec X(e). e<x>.nu x X<e>)<e>"),
                ("e<x>.(rec Y(x). X<e>)<e>",
                 "e<x>.(rec Y(x'). (rec X(e). e<x>.(rec Y(x). X<e>)<e>)<e>)"
                 "<e>")):
            body = parse(src)
            assert subst_ident(body, "X", ("e",), body) == parse(want)

    def test_subst_ident_leaves_binders_without_a_capture(self):
        # x binds only where no recursion goes: nothing to rename.
        body = parse("e<x>.(e(x).x! + X<e>)")
        got = subst_ident(body, "X", ("e",), body)
        assert got == Output("e", ("x",), Sum(
            parse("e(x).x!"), Rec("X", ("e",), body, ("e",))))

    def test_unfolded_recursion_keeps_its_free_name(self):
        # rule (11): after broadcasting a<x> and hearing v the recursion
        # still broadcasts the free x, not the received value.
        p = parse("(rec X(e). e<x>.e(x).X<e>)<a>")
        [(act, q)] = step_transitions(p)
        assert act.objects == ("x",)
        [r] = input_continuations(q, "a", ("v",))
        assert r == p


class TestAlpha:
    def test_alpha_eq_basic(self):
        assert alpha_eq(parse("a(x).x!"), parse("a(y).y!"))
        assert alpha_eq(parse("nu x x<a>"), parse("nu y y<a>"))
        assert not alpha_eq(parse("a(x).x!"), parse("a(y).a!"))

    def test_alpha_distinguishes_free(self):
        assert not alpha_eq(parse("a!"), parse("b!"))

    def test_canonical_idempotent(self):
        p = parse("nu x (x<a> | a(y).y!)")
        assert canonical_alpha(canonical_alpha(p)) == canonical_alpha(p)

    def test_rename_bound_apart(self):
        p = parse("a(x).nu x x!")
        q = rename_bound_apart(p, frozenset({"x"}))
        assert "x" not in bound_names(q)
        assert alpha_eq(p, q)


@given(processes1, name_substitutions())
def test_subst_preserves_closedness_and_fn(p, sigma):
    """fn(p sigma) == sigma(fn(p)) — substitution acts pointwise on fn."""
    q = apply_subst(p, sigma)
    expected = frozenset(sigma.get(x, x) for x in free_names(p))
    assert free_names(q) == expected


@given(processes1)
def test_canonical_alpha_is_alpha_invariant(p):
    q = rename_bound_apart(p, frozenset({"a", "b", "c", "x", "y", "z"}))
    assert canonical_alpha(p) == canonical_alpha(q)
    assert free_names(canonical_alpha(p)) == free_names(p)


@given(processes1, name_substitutions())
def test_subst_commutes_with_alpha(p, sigma):
    """Substitution is well-defined on alpha-classes."""
    q = rename_bound_apart(p, frozenset(sigma) | frozenset(sigma.values()))
    assert alpha_eq(apply_subst(p, sigma), apply_subst(q, sigma))


# -- the node memo against an uncached walk ----------------------------------

def _reference_binders(binders, body_free, mapping):
    inner = {x: y for x, y in mapping.items() if x not in binders}
    cod = {inner[x] for x in body_free if x in inner}
    if not any(b in cod for b in binders):
        return binders, inner
    avoid = set(body_free) | set(inner) | set(inner.values()) | set(binders)
    out = []
    for b in binders:
        if b in cod:
            nb = fresh_name(avoid, hint=b)
            avoid.add(nb)
            inner[b] = nb
            b = nb
        out.append(b)
    return tuple(out), inner


def _reference_subst(p, mapping):
    """Capture-avoiding substitution by a plain recursive walk: no memo,
    the mapping trimmed to the free names at every node."""
    mapping = {x: y for x, y in mapping.items()
               if x in free_names(p) and x != y}
    if not mapping or isinstance(p, Nil):
        return p
    sub = _reference_subst
    get = lambda n: mapping.get(n, n)  # noqa: E731
    if isinstance(p, Tau):
        return Tau(sub(p.cont, mapping))
    if isinstance(p, Input):
        params, inner = _reference_binders(p.params, free_names(p.cont),
                                           mapping)
        return Input(get(p.chan), params, sub(p.cont, inner))
    if isinstance(p, Output):
        return Output(get(p.chan), tuple(map(get, p.args)),
                      sub(p.cont, mapping))
    if isinstance(p, Restrict):
        (name,), inner = _reference_binders((p.name,), free_names(p.body),
                                            mapping)
        return Restrict(name, sub(p.body, inner))
    if isinstance(p, Match):
        return Match(get(p.left), get(p.right), sub(p.then, mapping),
                     sub(p.orelse, mapping))
    if isinstance(p, (Sum, Par)):
        return type(p)(sub(p.left, mapping), sub(p.right, mapping))
    if isinstance(p, Ident):
        return Ident(p.ident, tuple(map(get, p.args)))
    assert isinstance(p, Rec)
    args = tuple(map(get, p.args))
    body_free = free_names(p.body)
    body_map = {x: y for x, y in mapping.items()
                if x in body_free and x not in p.params}
    if not body_map:
        return Rec(p.ident, p.params, p.body, args)
    params, inner = _reference_binders(p.params, body_free, body_map)
    return Rec(p.ident, params, sub(p.body, inner), args)


#: Any mapping over every name a term may use free, onto names that may
#: be bound in it: non-injective and capture-forcing mappings included.
_ALL_NAMES = tuple(dict.fromkeys(FREE_NAMES + BOUND_NAMES + ("d",)))
any_mappings = st.dictionaries(st.sampled_from(_ALL_NAMES),
                               st.sampled_from(_ALL_NAMES), max_size=5)

#: Parsed per example: a node held across ``clear_caches()`` is no longer
#: interned, so rebuilding it would give an equal, not the identical, node.
rec_terms = st.sampled_from((
    "rec X(x := a, y := b). x(z).(y<z> | X<y, x>)",
    "rec X(x := a). x(z).nu y (z<y> | X<x>) | b<a>",
    "a(y).rec X(x := y, w := b). x<w>.X<w, x>",
    "rec X(x := a). x(z).(c<z> | X<x>)",  # c free in the body
)).map(parse)


class TestSubstMemo:
    @settings(max_examples=300, deadline=None)
    @given(p=processes1 | rec_terms,
           sigma=any_mappings, warm=any_mappings)
    def test_memoized_apply_subst_is_the_uncached_walk(self, p, sigma, warm):
        want = _reference_subst(p, sigma)
        assert apply_subst(p, sigma) is want       # first call
        assert apply_subst(p, sigma) is want       # repeat call
        # other renamings of the same nodes: an unrelated one, and sigma's
        # image rotated along the free names (same names, other places)
        fo = free_occurrence_order(p)
        image = [sigma.get(n, n) for n in fo]
        others = [warm] + [dict(zip(fo, image[k:] + image[:k]))
                           for k in range(1, len(fo))]
        for other in others:
            assert apply_subst(p, other) is _reference_subst(p, other)
        assert apply_subst(p, sigma) is want       # repeat among other entries
        clear_caches()
        again = apply_subst(p, sigma)              # after the purge
        assert again == want and again is _reference_subst(p, sigma)

    def test_identity_image_returns_the_node_itself(self):
        clear_caches()
        p = parse("a(x).nu y (x<y> | b!)")
        for sigma in ({}, {"x": "b", "y": "c"}, {"a": "a"}, {"c": "d"}):
            assert apply_subst(p, sigma) is p
        assert getattr(p, "_sub", {}) == {}
