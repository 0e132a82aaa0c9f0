"""The on-the-fly product core: worklist semantics, up-to closures,
partial evidence, and the two-layer budget contract."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchmarks.helpers import idle_listener, relay_star
from repro import obs
from repro.core.builder import out, par
from repro.core.parser import parse
from repro.core.canonical import canonical_state
from repro.core.freenames import free_occurrence_order
from repro.core.substitution import apply_subst
from repro.engine import Budget, BudgetExceeded, Verdict
from repro.equiv.onthefly import (
    DEFAULT_CLOSURES,
    ParallelContextClosure,
    PartialProduct,
    ReflexivityClosure,
    RenamingClosure,
    RewriteClosure,
    SymmetryClosure,
    explore_product,
    product_root,
    reduction_challenges,
    validate_strategy,
)
from tests.strategies import finite_processes


def table_solver(table):
    return lambda key: table.get(key, [])


# -- worklist semantics on synthetic games (no closures) ---------------------

class TestExploreProduct:
    def test_no_challenges_wins(self):
        assert explore_product("root", table_solver({"root": []}),
                               closures=())

    def test_empty_challenge_loses(self):
        assert not explore_product("root", table_solver({"root": [[]]}),
                                   closures=())

    def test_chain(self):
        table = {"a": [["b"]], "b": [["c"]], "c": []}
        assert explore_product("a", table_solver(table), closures=())

    def test_chain_with_dead_end(self):
        table = {"a": [["b"]], "b": [["c"]], "c": [[]]}
        assert not explore_product("a", table_solver(table), closures=())

    def test_or_choice_falls_back_to_next_witness(self):
        table = {"a": [["dead", "alive"]], "dead": [[]], "alive": []}
        assert explore_product("a", table_solver(table), closures=())

    def test_and_requirement(self):
        table = {"a": [["ok"], ["bad"]], "ok": [], "bad": [[]]}
        assert not explore_product("a", table_solver(table), closures=())

    def test_self_loop_survives(self):
        # greatest fixpoint: a self-supporting cycle is a valid witness
        table = {"a": [["a"]]}
        assert explore_product("a", table_solver(table), closures=())

    def test_mutual_loop_survives(self):
        table = {"a": [["b"]], "b": [["a"]]}
        assert explore_product("a", table_solver(table), closures=())

    def test_cascading_death(self):
        table = {"a": [["b"]], "b": [["c"]], "c": [["d"]], "d": [[]]}
        assert not explore_product("a", table_solver(table), closures=())

    def test_equal_but_not_identical_witness_keys_cascade(self):
        # Pair keys are rebuilt per challenge, so the same logical pair
        # shows up as equal-but-distinct tuple objects.  The kill cascade
        # must match witnesses structurally: b2's only candidate is an
        # equal copy of the dead pair, so b2 (and then the root) must die.
        t1, t2 = tuple(["d", "x"]), tuple(["d", "x"])
        assert t1 == t2 and t1 is not t2
        table = {
            "root": [["b1"], ["b2"]],
            "b1": [[t1, "safe"]],
            "b2": [[t2]],
            t1: [[]],
            "safe": [],
        }
        assert not explore_product("root", table_solver(table), closures=())

    def test_early_exit_skips_unrelated_branches(self):
        # The root dies down the first branch: the huge OR fan under
        # "wide" must never be expanded.
        calls = []

        def challenges(key):
            calls.append(key)
            table = {"a": [["bad"]], "bad": [[]],
                     "wide": [[f"w{i}"] for i in range(1000)]}
            return table.get(key, [])

        assert not explore_product("a", challenges, closures=())
        assert "wide" not in calls

    def test_charges_per_pair(self):
        table = {"a": [["b"]], "b": [["c"]], "c": []}
        meter = Budget(max_states=100).meter()
        assert explore_product("a", table_solver(table), closures=(),
                               budget=meter)
        assert meter.states == 3  # one charge per expanded pair

    def test_budget_trip_attaches_partial_product(self):
        table = {f"n{i}": [[f"n{i + 1}"]] for i in range(100)}
        with pytest.raises(BudgetExceeded) as ei:
            explore_product("n0", table_solver(table), closures=(),
                            budget=Budget(max_states=5))
        partial = ei.value.partial
        assert isinstance(partial, PartialProduct)
        assert partial.pairs_expanded == 5
        assert partial.max_depth >= 4
        assert "n0" in [p for p in partial.relation]
        assert "pairs" in partial.summary() and "depth" in partial.summary()

    def test_pre_cancelled_token_trips_before_any_verdict(self):
        from repro.engine import CancelToken
        token = CancelToken()
        token.cancel()
        with pytest.raises(BudgetExceeded) as ei:
            explore_product("root", table_solver({"root": []}),
                            closures=(), budget=Budget(cancel=token))
        assert ei.value.reason == "cancelled"
        assert isinstance(ei.value.partial, PartialProduct)


# -- the up-to closures ------------------------------------------------------

def pair(sp, sq):
    return (canonical_state(parse(sp)), canonical_state(parse(sq)))


class TestClosures:
    def test_rewrite_discharges_lemma6_variants(self):
        # `p | 0` and `0 | p` rewrite to the same canonical state
        assert RewriteClosure().apply(pair("a! | 0", "0 | a!")) is None

    def test_rewrite_normalises_both_sides(self):
        got = RewriteClosure().apply(pair("b! | a!", "c!"))
        assert got == pair("a! | b!", "c!")

    def test_symmetry_orients_deterministically(self):
        p, q = pair("a!.b!", "c?.d!")
        assert SymmetryClosure().apply((p, q)) == \
            SymmetryClosure().apply((q, p))

    def test_renaming_merges_name_orbits(self):
        # The same behaviour over different free names maps to one orbit
        # representative...
        c = RenamingClosure()
        assert c.apply(pair("a!.b!", "a!.c!")) == \
            c.apply(pair("x!.y!", "x!.z!"))
        # ...and the map is injective: identified names stay distinct.
        assert c.apply(pair("a!.b!", "a!.c!")) != \
            c.apply(pair("x!.y!", "x!.x!"))

    def test_renaming_is_idempotent(self):
        c = RenamingClosure()
        once = c.apply(pair("foo!.bar!", "baz?"))
        assert c.apply(once) == once

    def test_reflexivity_discharges_diagonal(self):
        p, _ = pair("a!.b!", "0")
        assert ReflexivityClosure().apply((p, p)) is None
        assert ReflexivityClosure().apply(pair("a!", "b!")) is not None

    def test_par_context_strips_common_components(self):
        got = ParallelContextClosure().apply(pair("a! | c?", "b! | c?"))
        assert got == pair("a!", "b!")

    def test_par_context_respects_multiplicity(self):
        got = ParallelContextClosure().apply(pair("a! | a!", "a!"))
        assert got == pair("a!", "0")

    def test_par_context_is_not_refutation_safe(self):
        assert ParallelContextClosure().refutation_safe is False
        assert all(c.refutation_safe for c in DEFAULT_CLOSURES)

    def test_pipeline_discharges_root_without_charges(self):
        # (p, p)-up-to-Lemma-6 costs zero pool: reflexivity after rewrite
        meter = Budget(max_states=1).meter()
        root = pair("a! | (b! | 0)", "(a! | b!)")
        flag = explore_product(
            root, lambda k: pytest.fail("expanded a discharged root"),
            budget=meter)
        assert flag and meter.states == 0

    def test_unsafe_false_is_reverified_without_the_closure(self):
        # A deliberately unsound "closure" rewrites every candidate to a
        # doomed pair; FALSE from the first run must be re-checked with
        # the safe pipeline only, which proves TRUE.
        class Doom:
            name = "doom"
            refutation_safe = False

            def apply(self, pr):
                return ("doomed", "doomed2")

        table = {
            ("root", "root2"): [[("ok", "ok2")]],
            ("ok", "ok2"): [],
            ("doomed", "doomed2"): [[]],
        }
        assert explore_product(("root", "root2"), table_solver(table),
                               closures=(Doom(),))


# -- end-to-end through the checkers -----------------------------------------

class TestCheckersOnTheFly:
    def test_onthefly_decides_where_global_trips(self):
        # A short distinguishing prefix inside an unbounded state space.
        p = parse("rec X(). tau.(a! | X)")
        q = parse("rec Y(). tau.(a! | a! | Y)")
        from repro.equiv.labelled import labelled_bisimilar
        budget = Budget(max_states=60)
        assert labelled_bisimilar(p, q, budget=budget,
                                  strategy="global").is_unknown
        v = labelled_bisimilar(p, q, budget=budget, strategy="onthefly")
        assert v.is_false

    def test_invalid_strategy_rejected_everywhere(self):
        from repro.equiv.barbed import barbed_bisimilar
        from repro.equiv.labelled import labelled_bisimilar
        from repro.equiv.step import step_bisimilar
        for fn in (barbed_bisimilar, step_bisimilar, labelled_bisimilar):
            with pytest.raises(ValueError, match="unknown strategy"):
                fn(parse("a!"), parse("a!"), strategy="magic")
        with pytest.raises(ValueError):
            validate_strategy("magic")

    def test_tripped_budget_yields_unknown_with_partial(self):
        from repro.equiv.step import strong_step_bisimilar
        p = parse("rec X(). tau.(a! | X)")
        q = parse("rec Y(). tau.(b! | Y)")
        v = strong_step_bisimilar(parse("a0! | a1! | a2! | a3! | a4! | a5!"),
                                  parse("b0! | b1! | b2! | b3! | b4! | b5!"),
                                  budget=Budget(max_states=2))
        assert isinstance(v, Verdict)
        if v.is_unknown:
            assert isinstance(v.evidence, PartialProduct)

    def test_weak_reduction_challenges_share_lazy_reach(self):
        # The weak challenge builder saturates on demand: deciding a
        # shallow FALSE must not pay for the whole tau-closure universe.
        meter = Budget(max_states=1_000).meter()
        challenges = reduction_challenges(steps=True, weak=True,
                                          meter=meter)
        root = product_root(parse("a!.b!"), parse("a!.c!"))
        assert not explore_product(root, challenges, budget=meter)
        assert meter.states < 30

    def test_cli_prints_partial_product_summary(self, capsys):
        from repro.__main__ import main
        code = main(["eq", "rec X(). tau.(a! | X)",
                     "rec Y(). tau.(tau.(a! | a!) | Y)", "--weak",
                     "--max-states", "40"])
        assert code == 2
        out = capsys.readouterr().out
        assert "UNKNOWN" in out and "pairs" in out and "depth" in out

    def test_cli_global_unknown_stays_bare(self, capsys):
        from repro.__main__ import main
        code = main(["eq", "rec X(). tau.(a! | X)",
                     "rec Y(). tau.(a! | a! | Y)",
                     "--strategy", "global", "--max-states", "50"])
        assert code == 2
        assert "UNKNOWN" in capsys.readouterr().out

    def test_cli_onthefly_decides_same_pair(self, capsys):
        from repro.__main__ import main
        code = main(["eq", "rec X(). tau.(a! | X)",
                     "rec Y(). tau.(a! | a! | Y)", "--max-states", "50"])
        assert code == 1
        assert "DIFFERENT" in capsys.readouterr().out


# -- the per-search closure memo ---------------------------------------------

class _Counting:
    """A closure wrapper counting how often its pipeline stage runs."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.refutation_safe = inner.refutation_safe
        self.calls = 0

    def apply(self, pr):
        self.calls += 1
        return self.inner.apply(pr)


def _per_call_hits(root, challenge_lists, closures):
    """``closure_hits`` as counted when every candidate read runs the whole
    pipeline, and the distinct pairs that were read."""
    def fires(pr):
        n = 0
        for c in closures:
            nxt = c.apply(pr)
            if nxt is None or nxt != pr:
                n += 1
            if nxt is None:
                return None, n
            pr = nxt
        return pr, n

    read = {root}
    _, total = fires(root)
    for chals in challenge_lists:
        for cand_list in chals:
            if not cand_list:
                break  # unanswerable: the pair dies, later challenges unread
            for cand in cand_list:
                read.add(cand)
                closed, n = fires(cand)
                total += n
                if closed is None:
                    break  # discharged: later candidates unread
    return total, read


class TestClosureMemo:
    @pytest.mark.parametrize("bisimilar", [False, True])
    def test_closure_hits_equal_the_per_call_count(self, bisimilar):
        # weak step relay3 against an idle listener (TRUE), weak labelled
        # relay3 against its wrong-channel variant (FALSE, a few weak steps in)
        from repro.equiv.labelled import _LabelledGame
        p = relay_star(3)
        meter = Budget(max_states=10_000).meter()
        if bisimilar:
            q = par(relay_star(3), idle_listener())
            base = reduction_challenges(steps=True, weak=True, meter=meter)
        else:
            q = relay_star(3, wrong=0)
            base = _LabelledGame(True, meter, lazy=True).challenges
        expanded = []

        def challenges(key):
            got = base(key)
            expanded.append(got)
            return got

        counting = tuple(_Counting(c) for c in DEFAULT_CLOSURES)
        root = product_root(p, q)
        obs.reset()
        obs.enable()
        try:
            verdict = explore_product(root, challenges, closures=counting,
                                      budget=meter)
            [span] = obs.trace_spans()
        finally:
            obs.reset()
        assert span.name == "product.explore"
        assert verdict is bisimilar
        hits, read = _per_call_hits(root, expanded, DEFAULT_CLOSURES)
        assert span.attrs["closure_hits"] == hits
        # the pipeline ran once per distinct candidate, not once per read
        assert counting[0].calls == len(read)
        assert sum(len(c) for chals in expanded for c in chals) > len(read)

    def test_fabricated_false_is_rechecked_with_a_fresh_memo(self):
        # rec X(). a!.X masks a! against a!.a!: stripping the common
        # component (up-to-parallel-context) fabricates FALSE, which the
        # safe pipeline's re-run, with its own memo, overturns.
        from repro.equiv.labelled import labelled_bisimilar
        p = parse("a! | rec X(). a!.X")
        q = parse("a!.a! | rec X(). a!.X")
        obs.reset()
        obs.enable()
        try:
            v = labelled_bisimilar(
                p, q, closures=(*DEFAULT_CLOSURES, ParallelContextClosure()))
            runs = [c.attrs["verdict"] for r in obs.trace_spans()
                    for c in r.children if c.name == "product.explore"]
        finally:
            obs.reset()
        assert runs == [False, True]
        assert v.is_true
        assert labelled_bisimilar(p, q, strategy="global").is_true
        assert labelled_bisimilar(parse("a!"), parse("a!.a!")).is_false


# -- renaming by image against its definition --------------------------------

def _renaming_by_definition(pair):
    """The renaming closure as defined: one joint first-occurrence map of
    both sides' free names to ``_c<i>``, applied with ``apply_subst``."""
    p, q = pair
    order, seen = [], set()
    for side in (p, q):
        for n in free_occurrence_order(side):
            if n not in seen:
                seen.add(n)
                order.append(n)
    mapping = {n: f"_c{i}" for i, n in enumerate(order) if n != f"_c{i}"}
    if not mapping:
        return pair
    return (canonical_state(apply_subst(p, mapping)),
            canonical_state(apply_subst(q, mapping)))


def _wide(names):
    """One output per name, so the term's free names are exactly *names*
    in that order."""
    return par(*(out(n) for n in names))


#: Free names that already lie in the renamed space, in and out of order.
_RENAMING_POOL = ("_c0", "_c1", "_c2", "a", "b")
_renaming_sides = (
    finite_processes(arity=1, free_pool=_RENAMING_POOL,
                     bound_pool=("x", "_c1", "_c2"), max_leaves=5)
    | st.lists(st.sampled_from([f"n{i}" for i in range(40)]
                               + [f"_c{i}" for i in range(45)]),
               min_size=30, max_size=45, unique=True).map(_wide))


@settings(max_examples=300, deadline=None)
@given(p=_renaming_sides, q=_renaming_sides, canonical=st.booleans())
@example(p=parse("a!"), q=parse("b!"), canonical=True)
@example(p=_wide(["_c0", "_c1"]), q=_wide(["_c1", "_c0", "_c2"]),
         canonical=False)
@example(p=_wide(["_c1", "_c0"]), q=_wide(["_c0"]), canonical=False)
@example(p=_wide([f"n{i}" for i in range(40)]),
         q=_wide([f"_c{i}" for i in range(44, 30, -1)]), canonical=True)
@example(p=parse("nu x nu x [x=x]{0}{0}"), q=_wide(["_c9", "n16"]),
         canonical=False)
def test_renaming_by_image_equals_its_definition(p, q, canonical):
    if canonical:
        p, q = canonical_state(p), canonical_state(q)
    renames = (RenamingClosure().apply, _renaming_by_definition)
    # Both end in canonical_state, which memoizes on the node: only the
    # first to reach a term would count the substitutions inside it.  So
    # run both once, then count only the renamings each applies itself.
    for rename in renames:
        rename((p, q))
    counts = []
    got = []
    for rename in renames:
        obs.reset()
        obs.enable()
        try:
            got.append(rename((p, q)))
            counts.append(obs.counter_value("core.substitutions_applied"))
        finally:
            obs.reset()
    assert got[0] == got[1]
    assert counts[0] == counts[1]
