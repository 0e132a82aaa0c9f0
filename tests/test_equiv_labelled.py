"""Tests for labelled bisimilarity (Definitions 7/8) and Remark 3.

The distinctive broadcast feature: inputs are matched by input-*or*-discard
("noisy" matching), so a process that receives and ignores is bisimilar to
one that never listened.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.actions import OutputAction
from repro.core.binders import freshen_action_binders
from repro.core.builder import par
from repro.core.canonical import canonical_state
from repro.core.freenames import free_names
from repro.core.parser import parse
from repro.core.substitution import apply_subst
from repro.engine import Budget
from repro.equiv.barbed import strong_barbed_bisimilar, weak_barbed_bisimilar
from repro.equiv.labelled import (
    _canonicalize_output,
    _LabelledGame,
    _move_table,
    _output_shape,
    strong_bisimilar,
    weak_bisimilar,
)
from repro.equiv.step import strong_step_bisimilar, weak_step_bisimilar
from tests.strategies import finite_processes, processes0, processes1


class TestNoisyMatching:
    def test_listening_and_ignoring_is_invisible(self):
        # a?.0 ~ 0 ~ b?.0 — the hallmark of broadcast bisimilarity
        assert strong_bisimilar(parse("a?"), parse("0"))
        assert strong_bisimilar(parse("a?"), parse("b?"))

    def test_reception_with_effect_is_visible(self):
        assert not strong_bisimilar(parse("a?.c!"), parse("0"))
        assert not strong_bisimilar(parse("a?.c!"), parse("b?.c!"))

    def test_input_values_matter(self):
        assert not strong_bisimilar(parse("a(x).[x=b]{c!}"), parse("a(x).c!"))
        assert strong_bisimilar(parse("a(x).[x=x]{c!}"), parse("a(x).c!"))

    def test_outputs_matched_exactly(self):
        assert not strong_bisimilar(parse("a!"), parse("b!"))
        assert not strong_bisimilar(parse("a<b>"), parse("a<c>"))

    def test_bound_output_alpha_irrelevant(self):
        assert strong_bisimilar(parse("nu x a<x>"), parse("nu y a<y>"))

    def test_bound_vs_free_output_differ(self):
        assert not strong_bisimilar(parse("nu x a<x>"), parse("a<b>"))

    def test_received_name_used_as_channel(self):
        p = parse("a(x).x!")
        q = parse("a(x).0")
        assert not strong_bisimilar(p, q)
        # and mobility: receiving then broadcasting on the received channel
        assert strong_bisimilar(p, parse("a(y).y!"))


class TestWeakLabelled:
    def test_tau_absorption(self):
        assert weak_bisimilar(parse("tau.a!"), parse("a!"))
        assert not strong_bisimilar(parse("tau.a!"), parse("a!"))

    def test_tau_choice_classic(self):
        # the classic CCS inequivalence survives in broadcast
        assert not weak_bisimilar(parse("a! + b!"), parse("tau.a! + tau.b!"))

    def test_weak_input(self):
        assert weak_bisimilar(parse("a(x).tau.x!"), parse("a(x).x!"))

    def test_output_guarded_sum_distribution(self):
        # a!.(b! + c!) vs a!.b! + a!.c! — NOT weakly bisimilar (Section 6
        # discussion: bisimulations are arguably too strong for broadcast)
        assert not weak_bisimilar(parse("a!.(b! + c!)"),
                                  parse("a!.b! + a!.c!"))


class TestRemark3:
    """~ is not preserved by choice, substitution, prefixing."""

    def test_not_preserved_by_choice(self):
        assert strong_bisimilar(parse("a?"), parse("b?"))
        assert not strong_bisimilar(parse("a? + c!"), parse("b? + c!"))

    def test_not_preserved_by_substitution(self):
        p = parse("x!.y?.c! + y?.(x! | c!)")
        q = parse("x! | y?.c!")
        assert strong_bisimilar(p, q)
        # sigma = {y -> x}: the broadcast on x now forces the reception
        ps = parse("x!.x?.c! + x?.(x! | c!)")
        qs = parse("x! | x?.c!")
        assert not strong_bisimilar(ps, qs)

    def test_not_preserved_by_prefix(self):
        # direct consequence: prefixing with a(y) then substituting shows
        # a(y).(p) vs a(y).(q) differ when y can be instantiated to x
        p = parse("y(x).(x!.y?.c! + y?.(x! | c!))")
        q = parse("y(x).(x! | y?.c!)")
        assert not strong_bisimilar(p, q)


class TestPreservation:
    """Lemmas 8 and 9: ~ and ~~ are preserved by nu and ||."""

    # Each pair comes with sort-compatible observers (Lemma 9 presumes the
    # composition is well-sorted; mixing arities on one channel is excluded
    # by the calculus' implicit sorting).
    PAIRS = [
        ("a?", "0", ["a!.b!", "c?.b!", "a! | b?"]),
        ("x!.y?.c! + y?.(x! | c!)", "x! | y?.c!", ["y!.c?", "x? | y!"]),
        ("a<b>.0", "a<b>.0 + a<b>.0", ["a(x).x<b>", "b(y).a<y>"]),
    ]

    def test_preserved_by_parallel(self):
        for lhs, rhs, observers in self.PAIRS:
            p, q = parse(lhs), parse(rhs)
            assert strong_bisimilar(p, q), (lhs, rhs)
            for r_text in observers:
                r = parse(r_text)
                assert strong_bisimilar(p | r, q | r), (lhs, rhs, r_text)

    def test_preserved_by_restriction(self):
        for lhs, rhs, _ in self.PAIRS:
            p, q = parse(lhs), parse(rhs)
            for name in ("a", "x", "y"):
                assert strong_bisimilar(
                    parse(f"nu {name} ({lhs})"), parse(f"nu {name} ({rhs})")), \
                    (lhs, rhs, name)


@given(processes0)
@settings(max_examples=40, deadline=None)
def test_reflexive(p):
    assert strong_bisimilar(p, p)


@given(processes0)
@settings(max_examples=30, deadline=None)
def test_lemma10_11_strong(p):
    """~ implies ~b and ~phi (Lemmas 10, 11) — via law-generated pairs."""
    q = p | parse("0")
    assert strong_bisimilar(p, q)
    assert strong_barbed_bisimilar(p, q)
    assert strong_step_bisimilar(p, q)


@given(processes1)
@settings(max_examples=25, deadline=None)
def test_strong_implies_weak(p):
    q = parse("nu dead (dead? | 0)") | p
    assert strong_bisimilar(p, q)
    assert weak_bisimilar(p, q)
    assert weak_barbed_bisimilar(p, q)
    assert weak_step_bisimilar(p, q)


# --- the output index answers exactly as a full scan does --------------------

#: Dyadic components rich in bound outputs: one binder, several binders,
#: a binder repeated among the objects, bound next to free objects, and
#: tau steps in front of them for the weak closures to walk.
_OUTPUT_COMPONENTS = tuple(parse(s) for s in (
    "nu x a<x, x>",
    "nu x nu y a<x, y>",
    "nu x nu y a<y, x>.b<x, y>",
    "nu x a<b, x>",
    "a<b, b>",
    "a<c, b> + tau.nu x a<x, b>",
    "tau.nu x a<x, x>",
    "nu x (a<x, c>.x<b, b> | b(u, v).a<u, v>)",
    "b<a, a>.nu y a<y, y>",
))

_output_rich = st.lists(
    st.sampled_from(_OUTPUT_COMPONENTS)
    | finite_processes(arity=2, max_leaves=4),
    min_size=1, max_size=3).map(lambda ps: canonical_state(par(*ps)))


def _outputs(p, backend):
    """Every output move of *p*, in step order."""
    return [(a, t) for a, t in backend.step_transitions(p)
            if isinstance(a, OutputAction)]


def _scanned_answers(game, q, reference):
    """The output clause's answers as a rescan of every output finds them:
    the loop the per-state output index replaced."""
    answers = []
    starts = game.tau_closure(q) if game.weak else (q,)
    for q1 in starts:
        for action, q2 in _outputs(q1, game.backend):
            if _output_shape(action) != _output_shape(reference):
                continue
            if reference.binders:
                action, q2 = freshen_action_binders(
                    action, q2, frozenset(reference.binders))
                q2 = apply_subst(q2, dict(zip(action.binders,
                                              reference.binders)))
            if game.weak:
                answers.extend(game.tau_closure(q2))
            else:
                answers.append(q2)
    return answers


@settings(max_examples=80, deadline=None)
@given(x=_output_rich, y=_output_rich, weak=st.booleans(),
       lazy=st.booleans(), calculus=st.sampled_from(("bpi", "lossy")))
@example(x=canonical_state(parse("nu x nu y a<y, x>")),
         y=canonical_state(parse("tau.nu u nu v a<u, v> | nu w a<w, w>")),
         weak=True, lazy=True, calculus="bpi")
def test_indexed_output_answers_equal_a_full_scan(x, y, weak, lazy,
                                                  calculus):
    indexed, scanning = (
        _LabelledGame(weak, Budget(max_states=100_000).meter(), lazy=lazy,
                      backend=calculus) for _ in range(2))
    _, moves, by_shape = _move_table(x, indexed.backend)
    assert [(a, t) for _, a, t in moves] == _outputs(x, indexed.backend)
    assert set(by_shape) == {shape for shape, _, _ in moves}
    for shape, group in by_shape.items():
        assert group == [(a, t) for s, a, t in moves if s == shape]
    fn_pair = free_names(x) | free_names(y)
    for shape, action, target in moves:
        assert shape == _output_shape(action)
        ref, _ = _canonicalize_output(action, target, fn_pair)
        assert _output_shape(ref) == shape
        # Twice: the global path must charge its closures on every ask,
        # the on-the-fly path its reach sets once per run.
        for _ in range(2):
            assert (indexed._answer_outputs(y, ref, shape)
                    == _scanned_answers(scanning, y, ref))
    assert indexed.meter.states == scanning.meter.states


def test_move_tables_are_kept_per_backend_and_cleared_with_the_kernel():
    from repro.calculi import registry
    from repro.core.cache import clear_caches

    # A lossy broadcast may go unheard, so the two backends' tables for
    # this state differ: one output target against two.
    p = canonical_state(parse("a<b> | a(x).x! | tau.c!"))
    q = canonical_state(parse("a<b> | a(x).x! | tau.tau.c!"))
    bpi, lossy = registry.resolve("bpi"), registry.resolve("lossy")
    clear_caches()
    # A search leaves the table of each state it expanded on its backend
    # (the global game expands the root pair as given, with no closure
    # renaming it first), and later searches, strong or weak, read it.
    for calculus in ("bpi", "lossy"):
        assert strong_bisimilar(p, q, calculus=calculus,
                                strategy="global").is_false
    bpi_table = bpi.memo("labelled-moves")[p]
    lossy_table = lossy.memo("labelled-moves")[p]
    assert len(bpi_table[1]) == 1 and len(lossy_table[1]) == 2
    assert weak_bisimilar(p, q, calculus="bpi", strategy="global").is_true
    assert _move_table(p, bpi) is bpi_table
    assert _move_table(p, lossy) is lossy_table
    clear_caches()
    assert not bpi.memo("labelled-moves")
    assert not lossy.memo("labelled-moves")
    assert _move_table(p, bpi) == bpi_table
