"""Tests for the baseline calculi and the inter-calculus claims.

* CBS: semantics + the ether translation is a strong operational
  correspondence (bpi conservatively extends CBS);
* pi: the handshake semantics, and the *congruence-property swap* — in pi
  barbed bisimilarity is preserved by restriction but broken by parallel;
  in bpi it is exactly the other way around;
* the (H) noisy law holds in bpi but fails in pi;
* the pi -> bpi encoding preserves behaviour on handshake scenarios
  (experiment S6b).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calculi.cbs import (
    NIL as CO,
)
from repro.calculi.cbs import (
    CbsPar,
    CbsRec,
    CbsSum,
    CbsVar,
    Hear,
    Speak,
    alphabet,
    cbs_bisimilar,
    hears,
    speaks,
    to_bpi,
    unfold,
)
from repro.calculi.cbs import discards as cbs_discards
from repro.calculi.encodings import pi_to_bpi
from repro.calculi.pi import (
    pi_barbed_bisimilar,
    pi_barbs,
    pi_step_transitions,
    pi_tau_successors,
)
from repro.core.actions import OutputAction, TauAction
from repro.core.parser import parse
from repro.core.semantics import input_continuations, step_transitions
from repro.core.substitution import canonical_alpha
from repro.equiv.barbed import strong_barbed_bisimilar
from repro.equiv.congruence import congruent
from repro.engine import Budget
from repro.runtime.analysis import can_reach_barb


# ---------------------------------------------------------------------------
# CBS
# ---------------------------------------------------------------------------

def _free_idents(p):
    if isinstance(p, CbsVar):
        return {p.ident}
    if isinstance(p, CbsRec):
        return _free_idents(p.body) - {p.ident}
    if isinstance(p, (CbsSum, CbsPar)):
        return _free_idents(p.left) | _free_idents(p.right)
    if isinstance(p, (Speak, Hear)):
        return _free_idents(p.cont)
    return set()


def _close(p):
    """Bind each free identifier of *p* by an enclosing guarded ``rec``;
    a ``rec`` already inside *p* may then mention an outer identifier."""
    for ident in sorted(_free_idents(p)):
        p = CbsRec(ident, Speak("t", p))
    return p


def cbs_terms():
    """Closed CBS terms.  Values may be named like the hear variables, so
    a broadcast can carry a value that an inner hear would capture."""
    values = st.sampled_from(["u", "v", "x", "y"])
    atoms = st.sampled_from([CO, Speak("u"), Speak("v"), Speak("x"),
                             Hear("x", Speak("x")), Hear("y", Speak("y")),
                             Hear("y", Hear("x", Speak("y"))),
                             CbsVar("X"), CbsVar("Y")])

    def extend(children):
        return st.one_of(
            st.builds(Speak, values, children),
            st.builds(Hear, st.sampled_from(["x", "y"]), children),
            st.builds(CbsSum, children, children),
            st.builds(CbsPar, children, children),
            st.builds(lambda ident, v, c: CbsRec(ident, Speak(v, c)),
                      st.sampled_from(["X", "Y"]), values, children),
        )

    return st.recursive(atoms, extend, max_leaves=4).map(_close)


#: ``rec X. t!(rec Y. (u!X + v!Y))``: the inner ``rec`` mentions X.
NESTED = CbsRec("X", Speak("t", CbsRec("Y", CbsSum(Speak("u", CbsVar("X")),
                                                   Speak("v", CbsVar("Y"))))))


class TestCbsSemantics:
    def test_speak(self):
        assert speaks(Speak("v", CO)) == (("v", CO),)

    def test_hear_substitutes(self):
        [q] = hears(Hear("x", Speak("x")), "v")
        assert q == Speak("v")

    def test_broadcast_reaches_all(self):
        p = CbsPar(Speak("v"), CbsPar(Hear("x", Speak("x")),
                                      Hear("y", Speak("y"))))
        [(v, q)] = speaks(p)
        assert v == "v"
        assert q == CbsPar(CO, CbsPar(Speak("v"), Speak("v")))

    def test_discard(self):
        assert cbs_discards(Speak("v"), "u")
        assert not cbs_discards(Hear("x", CO), "u")

    def test_rec_unfold(self):
        clock = CbsRec("X", Speak("tick", CbsVar("X")))
        [(v, q)] = speaks(clock)
        assert v == "tick"
        [(v2, _)] = speaks(q)
        assert v2 == "tick"

    def test_hear_does_not_capture_the_received_value(self):
        # Receiving the literal x must not bind it to the inner hear x.
        [q] = hears(Hear("y", Hear("x", Speak("y"))), "x")
        assert q == Hear("x'", Speak("x"))
        [(_, spoken)] = speaks(CbsPar(Speak("x"),
                                      Hear("y", Hear("x", Speak("y")))))
        assert spoken == CbsPar(CO, Hear("x'", Speak("x")))
        # Nothing to capture: the hear variable keeps its name.
        [q] = hears(Hear("y", Hear("x", Speak("x"))), "x")
        assert q == Hear("x", Speak("x"))

    def test_unfold_does_not_capture_a_free_value(self):
        # rec X. x!(x?(X)) speaks the literal x forever: the hear x under
        # which the recursion is unfolded must not bind it.
        p = CbsRec("X", Speak("x", Hear("x", CbsVar("X"))))
        assert unfold(p) == Speak("x", Hear("x'", p))
        [(v, q)] = speaks(p)
        assert v == "x"
        assert hears(q, "v") == (p,)
        [(v2, _)] = speaks(p)
        assert v2 == "x"

    def test_sum_hearing_drops_other_branch(self):
        p = CbsSum(Hear("x", Speak("x")), Speak("w"))
        assert hears(p, "v") == (Speak("v"),)


class TestEtherTranslation:
    def test_prefixes(self):
        assert to_bpi(Speak("v", CO)) == parse("ether<v>")
        got = to_bpi(Hear("x", Speak("x")))
        assert got == parse("ether(x).ether<x>")

    def test_hear_variable_cannot_capture_the_ether(self):
        with pytest.raises(ValueError, match="ether"):
            to_bpi(Hear("ether", Speak("ether")))
        assert to_bpi(Hear("ether", Speak("ether")), "e") == parse(
            "e(ether).e<ether>")

    def test_nested_rec_mentioning_outer_identifier(self):
        assert to_bpi(NESTED) == parse(
            "rec X(ether). ether<t>.(rec Y(ether). "
            "(ether<u>.X<ether> + ether<v>.Y<ether>))<ether>")

    @given(cbs_terms())
    @settings(max_examples=50, deadline=None)
    def test_strong_correspondence_speak(self, p):
        """Every CBS speak maps to an ether broadcast with translated
        residual, and vice versa (one direction checked structurally;
        the other by count)."""
        image = to_bpi(p)
        cbs_moves = {(v, canonical_alpha(to_bpi(q))) for v, q in speaks(p)}
        bpi_moves = {(a.objects[0], canonical_alpha(t))
                     for a, t in step_transitions(image)
                     if isinstance(a, OutputAction)}
        assert cbs_moves == bpi_moves

    @given(cbs_terms())
    @settings(max_examples=50, deadline=None)
    def test_strong_correspondence_hear(self, p):
        image = to_bpi(p)
        for v in sorted(alphabet(p) | {"w", "x", "y"}):
            # Compared modulo alpha: both sides rename a hear variable
            # that would capture the received value, each its own way.
            cbs_moves = {canonical_alpha(to_bpi(q)) for q in hears(p, v)}
            bpi_moves = {canonical_alpha(q)
                         for q in input_continuations(image, "ether", (v,))}
            assert cbs_moves == bpi_moves

    @given(cbs_terms())
    @settings(max_examples=30, deadline=None)
    def test_discard_preserved(self, p):
        image = to_bpi(p)
        from repro.core.discard import discards
        for v in ("u", "v", "w", "x", "y"):
            # in CBS, discarding v means no hear-derivative; the image
            # discards the ether iff it hears nothing at all
            if cbs_discards(p, v):
                assert not input_continuations(image, "ether", (v,))


class TestCbsBisimilarity:
    def test_noisy_law_in_cbs(self):
        assert cbs_bisimilar(Hear("x", CO), CO)
        assert not cbs_bisimilar(Hear("x", Speak("v")), CO)

    def test_speak_labels_matter(self):
        assert not cbs_bisimilar(Speak("v"), Speak("u"))
        assert cbs_bisimilar(CbsSum(Speak("v"), Speak("v")), Speak("v"))

    def test_recursive_clock(self):
        clock1 = CbsRec("X", Speak("t", CbsVar("X")))
        clock2 = CbsRec("Y", Speak("t", Speak("t", CbsVar("Y"))))
        assert cbs_bisimilar(clock1, clock2)

    def test_hear_variable_named_like_the_ether(self):
        # both images are translated under an ether name fresh for both
        assert cbs_bisimilar(Hear("ether", Speak("ether")),
                             Hear("x", Speak("x")))
        assert not cbs_bisimilar(Hear("ether", Speak("ether")),
                                 Hear("x", Speak("ether")))

    def test_nested_rec_is_its_unfolding(self):
        assert cbs_bisimilar(NESTED, unfold(NESTED))
        assert not cbs_bisimilar(NESTED, Speak("t", NESTED))

    @given(cbs_terms(), cbs_terms())
    @settings(max_examples=25, deadline=None)
    def test_translation_preserves_bisimilarity(self, p, q):
        """``p | O ~ p``, and bisimilar terms speak the same values by the
        CBS rules themselves, not by the translation."""
        # A rec over a parallel composition can double its width at every
        # step, so two such terms can keep the search busy indefinitely.
        budget = Budget(max_states=30)
        assert cbs_bisimilar(p, CbsPar(p, CO), budget=budget)
        if cbs_bisimilar(p, q, budget=budget).is_true:
            assert ({v for v, _ in speaks(p)}
                    == {v for v, _ in speaks(q)})


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

class TestPiSemantics:
    def test_handshake_is_tau(self):
        p = parse("a<b> | a(x).x!")
        taus = pi_tau_successors(p)
        assert parse("0 | b!") in taus

    def test_single_receiver_only(self):
        # pi: one sender, ONE receiver — the other listener keeps waiting
        p = parse("a! | a?.c! | a?.d!")
        taus = {str(t) for t in pi_tau_successors(p)}
        assert "0 | c! | a?.d!" in taus
        assert "0 | a?.c! | d!" in taus
        # no state where both received
        assert not any("c!" in s and "d!" in s and "a?" not in s for s in taus)

    def test_broadcast_atomicity_contrast(self):
        # bpi: ONE step serves both listeners simultaneously
        p = parse("a! | a?.c! | a?.d!")
        bpi_targets = [t for a, t in step_transitions(p)
                       if isinstance(a, OutputAction)]
        assert parse("0 | c! | d!") in bpi_targets

    def test_restricted_output_blocks(self):
        p = parse("nu a a<b>.c!")
        assert pi_step_transitions(p) == ()
        # whereas bpi internalises it
        assert len(step_transitions(p)) == 1

    def test_scope_extrusion(self):
        p = parse("nu x a<x> | a(y).y!")
        taus = pi_tau_successors(p)
        assert len(taus) == 1


class TestPiInstance:
    """pi is one more Table 3 instance, kept outside the registry names."""

    def test_clear_caches_empties_pi_memo_tables(self):
        from repro.calculi.pi import PI, pi_input_continuations
        from repro.core.cache import clear_caches

        p = parse("a<b> | a(x).x! | nu c (c! | c?)")
        pi_step_transitions(p)
        pi_input_continuations(p, "a", ("b",))
        assert PI.memo("steps") and PI.memo("inputs")
        clear_caches()
        assert not PI.memo("steps") and not PI.memo("inputs")

    def test_barbed_driver_reads_pi_barbs(self):
        # `a?` listens at the wrong arity for `a<b>`: bpi's rule (13) then
        # has no move for the output, so only pi sees the barb on `a`.
        p, q = parse("a<b> | a?"), parse("a<b>")
        assert pi_barbs(p) == {"a"} and not strong_barbed_bisimilar(p, q)
        assert pi_barbed_bisimilar(p, q)
        assert pi_barbed_bisimilar(p, q, weak=True)

    def test_pi_is_not_a_registry_name(self):
        from repro.calculi import registry
        from repro.calculi.backend import StructuralBackend
        from repro.calculi.pi import PI

        assert isinstance(PI, StructuralBackend)
        assert registry.resolve(PI) is PI
        assert "pi" not in registry.names()
        with pytest.raises(ValueError, match="unknown calculus 'pi'"):
            registry.resolve("pi")


class TestCongruencePropertySwap:
    """The headline comparative result (Lemma 3 + Remark 1 vs pi)."""

    P0, Q0 = "a<b>", "a<b>.c<d>"

    def test_base_pair_bisimilar_in_both(self):
        p, q = parse(self.P0), parse(self.Q0)
        assert strong_barbed_bisimilar(p, q)
        assert pi_barbed_bisimilar(p, q)

    def test_restriction_breaks_bpi_not_pi(self):
        p, q = parse(f"nu a {self.P0}"), parse(f"nu a ({self.Q0})")
        assert not strong_barbed_bisimilar(p, q)   # Remark 1
        assert pi_barbed_bisimilar(p, q)           # both deadlock in pi

    def test_parallel_breaks_pi_not_bpi(self):
        r = parse("a(x).0")
        p, q = parse(self.P0), parse(self.Q0)
        assert strong_barbed_bisimilar(p | r, q | r)   # Lemma 3
        assert not pi_barbed_bisimilar(p | r, q | r)   # handshake reveals


class TestNoisyLawContrast:
    def test_H_holds_in_bpi_fails_in_pi(self):
        # a!.p vs a!.(p + h(x).p): congruent in bpi (axiom H) ...
        lhs = parse("a!.b<c>")
        rhs = parse("a!.(b<c> + h(x).b<c>)")
        assert congruent(lhs, rhs)
        # ... but in pi the extra input is detectable by a handshake
        probe = parse("a? | h<v>.w!")
        assert not pi_barbed_bisimilar(lhs | probe, rhs | probe, weak=True)


# ---------------------------------------------------------------------------
# pi -> bpi encoding (S6b)
# ---------------------------------------------------------------------------

class TestPiEncoding:
    def reaches(self, p, chan, budget=20_000):
        """Bounded reachability: positives appear within a handful of
        states (BFS); negatives are asserted up to the budget — the
        encoded retry protocols have large/unbounded garbage interleaving
        spaces, so full exhaustion is not attempted."""
        from repro.core.reduction import StateSpaceExceeded
        try:
            return can_reach_barb(p, chan, budget=Budget(max_states=budget),
                                  collapse_duplicates=True)
        except StateSpaceExceeded:
            return False

    def test_simple_handshake(self):
        enc = pi_to_bpi(parse("a<v>.done! | a(x).x!"))
        assert self.reaches(enc, "done")
        assert self.reaches(enc, "v")

    def test_value_delivered_correctly(self):
        enc = pi_to_bpi(parse("a<v> | a(x).[x=v]{good!}{bad!}"))
        assert self.reaches(enc, "good")
        assert not self.reaches(enc, "bad")

    def test_exactly_one_receiver_wins(self):
        src = parse("a<v>.0 | a(x).c! | a(y).d!")
        enc = pi_to_bpi(src)
        # each may win ...
        assert self.reaches(enc, "c")
        assert self.reaches(enc, "d")
        # ... but never both in one run: c and d barbs are mutually
        # exclusive because only one grant matches
        from repro.core.reduction import barbs
        from repro.runtime.analysis import reachable_states
        both = any(
            {"c", "d"} <= barbs(s)
            for s in reachable_states(enc, collapse=True,
                                      budget=Budget(max_states=60_000)))
        assert not both

    def test_late_receiver_still_served(self):
        # receiver guarded by an unrelated reception: the a-sender's first
        # session finds no listener, so it must retry until the receiver
        # unblocks (the whole system is encoded — sessions on b and a)
        src = parse("a<v>.done! | b(z).a(x).x! | b<k>")
        enc = pi_to_bpi(src)
        assert self.reaches(enc, "done", budget=60_000)
        assert self.reaches(enc, "v", budget=60_000)

    def test_no_spurious_success(self):
        # no receiver at all: the translated sender never completes
        enc = pi_to_bpi(parse("a<v>.done!"))
        assert not self.reaches(enc, "done")
