"""Unit tests for ``repro.engine``: budgets, meters and verdicts."""

import pytest

from repro.engine import (
    UNLIMITED,
    Budget,
    BudgetExceeded,
    CancelToken,
    IndeterminateVerdict,
    StateSpaceExceeded,
    Truth,
    Verdict,
    active_meter,
    govern,
    resolve_meter,
)
from repro.engine.budget import POLL_INTERVAL


class FakeClock:
    """A manually-stepped clock for deterministic deadline tests."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestBudget:
    def test_defaults_unlimited(self):
        m = UNLIMITED.meter()
        for _ in range(1000):
            m.charge()
        assert m.states == 1000 and m.tripped is None

    def test_max_states_trips(self):
        m = Budget(max_states=3).meter()
        m.charge()
        m.charge(2)
        with pytest.raises(BudgetExceeded) as ei:
            m.charge()
        assert ei.value.reason == "max-states"
        assert m.tripped == "max-states"

    def test_tripped_meter_reraises(self):
        m = Budget(max_states=1).meter()
        m.charge()
        with pytest.raises(BudgetExceeded):
            m.charge()
        for op in (m.charge, m.tick, m.check):
            with pytest.raises(BudgetExceeded):
                op()

    def test_trip_is_statespace_exceeded(self):
        # legacy except-clauses keep working
        m = Budget(max_states=0).meter()
        with pytest.raises(StateSpaceExceeded):
            m.charge()

    def test_deadline_with_injected_clock(self):
        clock = FakeClock()
        m = Budget(deadline=10.0, clock=clock).meter()
        clock.advance(9.0)
        m.check()  # still inside the deadline
        clock.advance(2.0)
        with pytest.raises(BudgetExceeded) as ei:
            m.check()
        assert ei.value.reason == "deadline"

    def test_deadline_polled_on_charge(self):
        clock = FakeClock()
        m = Budget(deadline=1.0, clock=clock).meter()
        clock.advance(5.0)
        with pytest.raises(BudgetExceeded):
            for _ in range(POLL_INTERVAL + 1):
                m.charge()

    def test_cancel_token(self):
        token = CancelToken()
        m = Budget(cancel=token).meter()
        m.check()
        token.cancel()
        with pytest.raises(BudgetExceeded) as ei:
            m.check()
        assert ei.value.reason == "cancelled"

    def test_watching_property(self):
        assert not Budget(max_states=5).meter().watching
        assert Budget(deadline=1.0).meter().watching
        assert Budget(cancel=CancelToken()).meter().watching

    def test_scaled(self):
        b = Budget(max_states=10, deadline=2.0)
        s = b.scaled(10)
        assert s.max_states == 100 and s.deadline == 20.0
        assert Budget().scaled(10) == Budget()

    def test_stats_snapshot(self):
        m = Budget(max_states=100).meter()
        m.charge(7)
        st = m.stats()
        assert st["states"] == 7 and st["max_states"] == 100
        assert st["tripped"] is None

    def test_exceeded_carries_stats_and_partial(self):
        exc = BudgetExceeded("max-states", "boom", stats={"states": 3},
                             partial=[1, 2, 3])
        assert exc.stats["states"] == 3 and exc.partial == [1, 2, 3]


class TestGovern:
    def test_ambient_meter_visible(self):
        assert active_meter() is None
        with govern(Budget(max_states=5)) as m:
            assert active_meter() is m
        assert active_meter() is None

    def test_resolve_precedence(self):
        ambient = Budget(max_states=1)
        explicit = Budget(max_states=99)
        with govern(ambient):
            m = resolve_meter(explicit)
            assert m.budget.max_states == 99  # explicit beats ambient
            m = resolve_meter(None)
            assert m.budget.max_states == 1  # ambient beats default
        m = resolve_meter(None, Budget(max_states=7))
        assert m.budget.max_states == 7  # default beats UNLIMITED
        assert resolve_meter(None).budget == UNLIMITED

    def test_resolve_shares_meter(self):
        shared = Budget(max_states=10).meter()
        assert resolve_meter(shared) is shared

    def test_resolve_rejects_ints(self):
        with pytest.raises(TypeError):
            resolve_meter(500)

    def test_governed_checkers_share_pool(self):
        # A distinguishable pair with a deep product: the on-the-fly core
        # must draw its per-pair charges from the ambient pool and trip.
        from repro.core.parser import parse
        from repro.equiv.labelled import labelled_bisimilar
        with govern(Budget(max_states=2)) as m:
            v = labelled_bisimilar(parse("a!.b!.c!.d!"),
                                   parse("a!.b!.c!.e!"))
        assert v.is_unknown and m.tripped == "max-states"


def _app_queries():
    """The five app entry points, each on an input whose answer is TRUE
    and needs more than three states to find."""
    from repro.apps.cycle_detection import detects_cycle
    from repro.apps.pubsub import delivered, network
    from repro.apps.radio import (
        base_station,
        can_deliver,
        can_hear,
        cellular_backend,
        mobile_station,
        reliable_network,
    )
    from repro.apps.transactions import Transaction as T
    from repro.apps.transactions import detects_inconsistency
    from repro.core.builder import par, tau

    late_station = tau(tau(tau(base_station("cell_w", "frame"))))
    return {
        "detects_cycle": lambda **kw: detects_cycle(
            [("a", "b"), ("b", "a")], **kw),
        "delivered": lambda **kw: delivered(
            network(["m1"], ["alice"]), "alice", "m1", **kw),
        "can_deliver": lambda **kw: can_deliver(
            reliable_network("frame1", ["rx_a"]), "rx_a", "frame1", **kw),
        "can_hear": lambda **kw: can_hear(
            par(late_station, mobile_station("mob", "screen")), "screen",
            calculus=cellular_backend(("mob", "cell_w")), **kw),
        "detects_inconsistency": lambda **kw: detects_inconsistency(
            [T("t1", "w", "j", "p1"), T("t2", "w", "j", "p2")], **kw),
    }


class TestAppsHonourGovern:
    @pytest.mark.parametrize("entry", sorted(_app_queries()))
    def test_ambient_charged_and_explicit_wins(self, entry):
        query = _app_queries()[entry]
        with govern(Budget(max_states=3)) as m:
            query()
        assert m.tripped == "max-states" and m.states > 3
        with govern(Budget(max_states=3)) as m:
            result = query(budget=Budget(max_states=10_000))
        assert m.states == 0
        assert result is True or result.is_true


class TestOneBudgetSpelling:
    def test_pre_engine_caps_are_type_errors(self):
        # Budget= is the only way to bound a search; the old per-call
        # keyword caps are not accepted under any name.
        from repro.core.parser import parse
        from repro.core.reduction import can_reach_barb
        from repro.equiv.labelled import labelled_bisimilar
        p = parse("a!")
        with pytest.raises(TypeError):
            can_reach_barb(p, "x", max_states=10)
        with pytest.raises(TypeError):
            labelled_bisimilar(p, p, max_pairs=10)


class TestVerdict:
    def test_definite_bool(self):
        assert bool(Verdict.of(True)) is True
        assert bool(Verdict.of(False)) is False

    def test_unknown_bool_raises(self):
        v = Verdict.unknown("max-states")
        with pytest.raises(IndeterminateVerdict) as ei:
            bool(v)
        assert ei.value.verdict is v
        # ... and the raise is catchable as the legacy exception
        with pytest.raises(StateSpaceExceeded):
            bool(v)

    def test_predicates(self):
        assert Verdict.of(True).is_true and Verdict.of(True).is_definite
        assert Verdict.of(False).is_false
        u = Verdict.unknown("deadline")
        assert u.is_unknown and not u.is_definite

    def test_three_valued_eq(self):
        assert Verdict.of(True) == True  # noqa: E712
        assert Verdict.of(False) == False  # noqa: E712
        assert not (Verdict.unknown("max-states") == True)  # noqa: E712
        assert not (Verdict.unknown("max-states") == False)  # noqa: E712
        assert Verdict.unknown("max-states") == Verdict.unknown("deadline")
        assert Verdict.of(True) == Truth.TRUE

    def test_reason_only_on_unknown(self):
        with pytest.raises(ValueError):
            Verdict(Truth.TRUE, reason="max-states")

    def test_immutable(self):
        v = Verdict.of(True)
        with pytest.raises(AttributeError):
            v.truth = Truth.FALSE

    def test_kleene_and(self):
        T, F = Verdict.of(True), Verdict.of(False)
        U = Verdict.unknown("max-states")
        assert (T & T).is_true
        assert (T & F).is_false and (F & U).is_false and (U & F).is_false
        assert (T & U).is_unknown and (U & T).is_unknown

    def test_kleene_or(self):
        T, F = Verdict.of(True), Verdict.of(False)
        U = Verdict.unknown("max-states")
        assert (F | F).is_false
        assert (T | U).is_true and (U | T).is_true
        assert (F | U).is_unknown and (U | U).is_unknown

    def test_kleene_not(self):
        assert (~Verdict.of(True)).is_false
        assert (~Verdict.of(False)).is_true
        assert (~Verdict.unknown("max-states")).is_unknown

    def test_bool_coercion_in_kleene(self):
        assert (Verdict.of(True) & True).is_true
        assert (False & Verdict.of(True)).is_false

    def test_from_exceeded_defaults_partial_as_evidence(self):
        exc = BudgetExceeded("deadline", "late", stats={"states": 2},
                             partial=["p0"])
        v = Verdict.from_exceeded(exc)
        assert v.is_unknown and v.reason == "deadline"
        assert v.evidence == ["p0"] and v.stats["states"] == 2

    def test_repr(self):
        assert "TRUE" in repr(Verdict.of(True))
        assert "max-states" in repr(Verdict.unknown("max-states"))
