"""Exhaustion scenarios end-to-end: deadlines mid-refinement, cooperative
cancellation mid-game, graceful degradation, and the budget-monotonicity
property (a definite verdict never flips when the budget grows)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.parser import parse
from repro.engine import (
    Budget,
    BudgetExceeded,
    CancelToken,
    Verdict,
    govern,
)
from repro.equiv.game import solve_game
from repro.equiv.labelled import labelled_bisimilar
from repro.lts.partition import coarsest_partition
from tests.strategies import processes1


class SteppingClock:
    """Advances by *dt* on every read — time passes as the search works."""

    def __init__(self, dt: float = 1.0):
        self.t = 0.0
        self.dt = dt

    def __call__(self) -> float:
        self.t += self.dt
        return self.t


# A small chain graph: 4 states, successor i -> i+1.
CHAIN_SUCCS = [frozenset({1}), frozenset({2}), frozenset({3}), frozenset()]
CHAIN_KEYS = ["x", "x", "x", "x"]


class TestDeadlineMidRefinement:
    def test_deadline_trips_inside_refinement(self):
        # The clock jumps 10s per read against a 5s deadline: the meter's
        # first in-refinement poll (Meter.check at _refine entry) trips.
        budget = Budget(deadline=5.0, clock=SteppingClock(dt=10.0))
        with pytest.raises(BudgetExceeded) as ei:
            coarsest_partition(CHAIN_SUCCS, CHAIN_KEYS, budget=budget)
        assert ei.value.reason == "deadline"

    def test_generous_deadline_completes(self):
        budget = Budget(deadline=1e9, clock=SteppingClock(dt=1.0))
        blocks = coarsest_partition(CHAIN_SUCCS, CHAIN_KEYS, budget=budget)
        assert len(set(blocks)) == 4  # the chain is fully distinguished

    def test_unwatched_budget_never_polls(self):
        # A pure state cap installs no deadline/cancel: refinement must
        # not trip on iteration count alone.
        blocks = coarsest_partition(CHAIN_SUCCS, CHAIN_KEYS,
                                    budget=Budget(max_states=1))
        assert len(set(blocks)) == 4

    def test_checker_degrades_to_unknown(self):
        # End-to-end: an expired deadline surfaces as UNKNOWN once the
        # search is big enough to reach a poll point (POLL_INTERVAL
        # charges): 7 parallel outputs make a 128-state graph.
        from repro.runtime.analysis import can_reach_barb
        # presolve=False: the flow pre-solver would refute 'zz' in
        # O(term), and this test is about the explorer's poll points
        big = parse(" | ".join(f"a{i}!" for i in range(7)))
        budget = Budget(deadline=1.0, clock=SteppingClock(dt=10.0))
        v = can_reach_barb(big, "zz", budget=budget, presolve=False)
        assert v.is_unknown and v.reason == "deadline"


class TestCancellationMidGame:
    def test_cancel_from_inside_challenge_generation(self):
        # The observer cancels after the 5th explored pair; the unbounded
        # pair graph would otherwise run forever.
        token = CancelToken()
        calls = [0]

        def challenges(key):
            calls[0] += 1
            if calls[0] == 5:
                token.cancel()
            return [[f"n{calls[0]}"]]

        with pytest.raises(BudgetExceeded) as ei:
            solve_game("root", challenges, budget=Budget(cancel=token))
        assert ei.value.reason == "cancelled"
        assert calls[0] >= 5  # ran past the cancel point only to the poll
        assert ei.value.partial  # pairs explored so far ride along

    def test_cancelled_checker_returns_unknown(self):
        token = CancelToken()
        token.cancel()
        grower = parse("rec X(). tau.(a! | X)")
        v = labelled_bisimilar(grower, parse("rec Y(). tau.(a! | a! | Y)"),
                               budget=Budget(cancel=token))
        assert v.is_unknown and v.reason == "cancelled"

    def test_uncancelled_token_is_inert(self):
        token = CancelToken()
        v = labelled_bisimilar(parse("a!"), parse("a!"),
                               budget=Budget(cancel=token))
        assert v.is_true

    def test_cancelled_exploration_keeps_partial(self):
        # the token is polled every POLL_INTERVAL charges: 7 parallel
        # outputs make a 128-state graph, enough to reach a poll point
        from repro.lts.graph import build_step_lts
        token = CancelToken()
        token.cancel()
        big = parse(" | ".join(f"a{i}!" for i in range(7)))
        with pytest.raises(BudgetExceeded) as ei:
            build_step_lts(big, budget=Budget(cancel=token))
        assert ei.value.reason == "cancelled"
        lts, root = ei.value.partial
        assert root == 0 and 1 <= lts.n_states < 128


class TestGracefulDegradation:
    def test_explore_returns_partial_graph(self):
        import repro
        ex = repro.explore("rec X(). tau.(a! | X)",
                           budget=Budget(max_states=10))
        assert not ex.complete and ex.reason == "max-states"
        assert 1 <= ex.n_states <= 11
        assert ex.stats["tripped"] == "max-states"

    def test_explore_partial_is_prefix_of_full(self):
        import repro
        star = " | ".join(["a<v>"] + [f"a(x{i}).r{i}<x{i}>"
                                      for i in range(6)])
        ex = repro.explore(star, budget=Budget(max_states=23))
        assert not ex.complete and ex.reason == "max-states"
        assert ex.n_states == 23
        full = repro.explore(star)
        assert full.complete and full.states[:23] == ex.states

    def test_invariant_refutation_survives_trip(self):
        # the violating state is inside the truncated prefix: FALSE, not
        # UNKNOWN, even though the budget tripped
        from repro.runtime.analysis import invariant_holds
        grower = parse("o! | rec X(). tau.(a! | X)")
        v = invariant_holds(grower, lambda s: False,
                            budget=Budget(max_states=5))
        assert v.is_false

    def test_ambient_pool_shared_across_calls(self):
        from repro.runtime.analysis import can_reach_barb
        with govern(Budget(max_states=30)) as meter:
            v1 = can_reach_barb(parse("tau.ok!"), "ok")
            assert v1.is_true
            spent = meter.states
            assert spent > 0
            v2 = can_reach_barb(parse("rec X(). tau.(a! | X)"), "zz",
                                presolve=False)
            assert v2.is_unknown  # the pool, not a fresh 30, governed it
        assert meter.tripped == "max-states"


# -- budget monotonicity ----------------------------------------------------
#
# The engine invariant: enlarging a budget can turn UNKNOWN into a
# definite verdict but can never flip TRUE <-> FALSE, because definite
# answers are produced only by *completed* searches and a completed
# search is budget-independent.

@pytest.mark.parametrize("strategy", ["onthefly", "global"])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(p=processes1, q=processes1, cap=st.integers(2, 60))
def test_budget_monotonicity_labelled(strategy, p, q, cap):
    small = Budget(max_states=cap)
    v_small = labelled_bisimilar(p, q, budget=small, strategy=strategy)
    v_big = labelled_bisimilar(p, q, budget=small.scaled(10),
                               strategy=strategy)
    if v_small.is_definite:
        assert v_big.truth == v_small.truth
    # (UNKNOWN at the small budget may be anything at the big one.)


# -- strategy agreement ------------------------------------------------------
#
# The on-the-fly core is a different decision procedure for the same
# relations: whenever both strategies complete, they must agree; and
# since on-the-fly charges a subset of what the global strategy charges
# (pairs instead of states, closures merging the frontier), it must never
# be the one that goes UNKNOWN when the global oracle is definite under
# the same max-states pool.  The subset argument is *strong-only*: weak
# checkers additionally charge LazyReach saturation per visited state,
# so at a tight cap the pair game can trip where the global graph fits
# (e.g. 0 vs tau.tau.0 at max_states=4: 3 states globally, but 2 pairs
# + 3 saturated states on the fly).

@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(p=processes1, q=processes1, cap=st.integers(4, 80))
def test_strategy_agreement_labelled(p, q, cap):
    budget = Budget(max_states=cap)
    v_fly = labelled_bisimilar(p, q, budget=budget, strategy="onthefly")
    v_glob = labelled_bisimilar(p, q, budget=budget, strategy="global")
    if v_fly.is_definite and v_glob.is_definite:
        assert v_fly.truth == v_glob.truth
    if v_glob.is_definite:
        assert v_fly.is_definite


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(p=processes1, q=processes1, cap=st.integers(4, 80),
       weak=st.booleans())
def test_strategy_agreement_step(p, q, cap, weak):
    from repro.equiv.step import step_bisimilar
    budget = Budget(max_states=cap)
    v_fly = step_bisimilar(p, q, weak=weak, budget=budget,
                           strategy="onthefly")
    v_glob = step_bisimilar(p, q, weak=weak, budget=budget,
                            strategy="global")
    if v_fly.is_definite and v_glob.is_definite:
        assert v_fly.truth == v_glob.truth
    if v_glob.is_definite and not weak:
        assert v_fly.is_definite


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(p=processes1, q=processes1, cap=st.integers(4, 80),
       weak=st.booleans())
def test_strategy_agreement_barbed(p, q, cap, weak):
    from repro.equiv.barbed import barbed_bisimilar
    budget = Budget(max_states=cap)
    v_fly = barbed_bisimilar(p, q, weak=weak, budget=budget,
                             strategy="onthefly")
    v_glob = barbed_bisimilar(p, q, weak=weak, budget=budget,
                              strategy="global")
    if v_fly.is_definite and v_glob.is_definite:
        assert v_fly.truth == v_glob.truth
    if v_glob.is_definite and not weak:
        assert v_fly.is_definite


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(p=processes1, cap=st.integers(2, 40))
def test_budget_monotonicity_reachability(p, cap):
    from repro.runtime.analysis import can_reach_barb
    small = Budget(max_states=cap)
    v_small = can_reach_barb(p, "a", budget=small)
    v_big = can_reach_barb(p, "a", budget=small.scaled(10))
    if v_small.is_definite:
        assert v_big.truth == v_small.truth


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(p=processes1, cap=st.integers(2, 40))
def test_budget_monotonicity_invariant(p, cap):
    from repro.runtime.analysis import invariant_holds
    small = Budget(max_states=cap)
    v_small = invariant_holds(p, lambda s: True, budget=small)
    v_big = invariant_holds(p, lambda s: True, budget=small.scaled(10))
    if v_small.is_definite:
        assert v_big.truth == v_small.truth


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(p=processes1, q=processes1, cap=st.integers(2, 60))
def test_budget_monotonicity_acceptance(p, q, cap):
    from repro.equiv.acceptance import acceptance_equal
    small = Budget(max_states=cap)
    v_small = acceptance_equal(p, q, budget=small)
    v_big = acceptance_equal(p, q, budget=small.scaled(10))
    if v_small.is_definite:
        assert v_big.truth == v_small.truth


class TestTraceLanguageTruncation:
    """A truncated trace language must never be compared as complete:
    with a shared meter the second exploration truncates immediately
    after the first trips, so equality on the truncated sets would
    fabricate a definite FALSE (even for p compared against itself)."""

    BIG = " | ".join(f"a{i}!" for i in range(6))  # 64 states, ample traces

    def test_acceptance_equal_self_is_never_false_under_trip(self):
        from repro.equiv.acceptance import acceptance_equal
        p = parse(self.BIG)
        v = acceptance_equal(p, p, budget=Budget(max_states=15))
        assert v.is_unknown and v.reason == "max-states"

    def test_accepts_refines_goes_unknown_under_trip(self):
        from repro.equiv.acceptance import accepts_refines
        p = parse(self.BIG)
        v = accepts_refines(p, p, budget=Budget(max_states=15))
        assert v.is_unknown and v.reason == "max-states"

    def test_traces_upto_raises_with_partial(self):
        from repro.equiv.acceptance import traces_upto
        with pytest.raises(BudgetExceeded) as ei:
            traces_upto(parse(self.BIG), budget=Budget(max_states=15))
        assert ei.value.reason == "max-states"
        assert () in ei.value.partial  # the prefix language rides along

    def test_output_traces_raises_with_partial(self):
        from repro.equiv.maytesting import output_traces
        with pytest.raises(BudgetExceeded) as ei:
            output_traces(parse(self.BIG), budget=Budget(max_states=15))
        assert ei.value.reason == "max-states"
        assert () in ei.value.partial


def test_unknown_only_from_tripped_budget():
    # Verdict.from_exceeded is the only trip-to-verdict path and cannot
    # yield a definite answer.
    exc = BudgetExceeded("max-states", "boom")
    assert Verdict.from_exceeded(exc).is_unknown


# -- budget monotonicity through the verdict store ---------------------------
#
# The store's reuse rule is monotonicity applied across process
# lifetimes: a cached UNKNOWN recorded at cap B proves only that B was
# insufficient, so it must never answer a request with budget > B; and a
# definite verdict served from cache must be the verdict a direct check
# would compute.

class TestStoreBudgetMonotonicity:
    GROWER = ("rec X(). tau.(a! | X)", "rec Y(). tau.(a! | a! | Y)")

    def test_cached_unknown_never_answers_a_larger_budget(self):
        from repro.store import VerdictStore
        p, q = parse(self.GROWER[0]), parse(self.GROWER[1])
        with VerdictStore(":memory:") as s:
            v = s.check(p, q, strategy="global",
                        budget=Budget(max_states=50))
            assert v.is_unknown and v.reason == "max-states"
            assert len(s) == 1  # the trip was cached...
            # ...but a larger budget must fall through to recomputation:
            assert s.lookup(p, q, strategy="global", cap=51) is None
            assert s.lookup(p, q, strategy="global", cap=None) is None
            # the on-the-fly default refutes this pair outright; the
            # UNKNOWN row is keyed per-strategy and cannot shadow it
            big = s.check(p, q, budget=Budget(max_states=10_000))
            assert big.is_false

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(p=processes1, q=processes1, cap=st.integers(4, 60))
    def test_definite_verdicts_never_flip_through_the_store(self, p, q, cap):
        from repro.store import VerdictStore
        small = Budget(max_states=cap)
        direct_small = labelled_bisimilar(p, q, budget=small)
        direct_big = labelled_bisimilar(p, q, budget=small.scaled(10))
        with VerdictStore(":memory:") as s:
            via_small = s.check(p, q, budget=small)
            via_big = s.check(p, q, budget=small.scaled(10))
        assert via_small.truth is direct_small.truth
        if direct_small.is_definite:
            # store-mediated or not, the larger budget agrees (and the
            # second call was in fact a cache hit at a larger budget)
            assert via_big.truth is direct_small.truth
            assert via_big.stats.get("store") == "hit"
        else:
            assert via_big.truth is direct_big.truth

    def test_served_unknown_keeps_reason_and_cannot_become_definite(self):
        from repro.store import VerdictStore
        p, q = parse(self.GROWER[0]), parse(self.GROWER[1])
        with VerdictStore(":memory:") as s:
            budget = Budget(max_states=50)
            first = s.check(p, q, strategy="global", budget=budget)
            again = s.check(p, q, strategy="global", budget=budget)
            assert first.is_unknown
            assert again.is_unknown and again.reason == first.reason
            assert again.stats.get("store") == "hit"
