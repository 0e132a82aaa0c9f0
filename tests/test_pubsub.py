"""Tests for the publish/subscribe application (introduction's promises)."""

from repro.apps.pubsub import (
    delivered,
    late_subscriber,
    monitor,
    network,
    publisher,
    simulate,
    subscriber,
)
from repro.core.builder import out, par
from repro.core.freenames import free_names
from repro.runtime.analysis import can_reach_barb
from repro.engine import Budget


class TestDelivery:
    def test_single_subscriber(self):
        system = network(["m1"], ["alice"])
        assert delivered(system, "alice", "m1")

    def test_all_subscribers_served(self):
        system = network(["m1"], ["alice", "bob"])
        assert delivered(system, "alice", "m1")
        assert delivered(system, "bob", "m1")

    def test_multiple_payloads_in_order_possible(self):
        system = network(["m1", "m2"], ["alice"])
        assert delivered(system, "alice", "m1")
        assert delivered(system, "alice", "m2")

    def test_non_subscriber_gets_nothing(self):
        system = network(["m1"], ["alice"])
        assert not delivered(system, "eve", "m1", budget=Budget(max_states=5_000))

    def test_no_wrong_payload(self):
        system = network(["m1"], ["alice"])
        assert not delivered(system, "alice", "zz", budget=Budget(max_states=5_000))


class TestDynamicReceivers:
    def test_late_subscriber_catches_later_payloads(self):
        # bob starts only after a `go` broadcast; the publisher re-
        # advertises, so bob can still receive m2
        system = par(publisher(["m1", "m2"]),
                     subscriber("alice"),
                     late_subscriber("go", "bob"),
                     out("go"))
        assert delivered(system, "bob", "m2")

    def test_publisher_term_is_receiver_oblivious(self):
        # promise 2, syntactically: the publisher term is identical no
        # matter how many subscribers are composed beside it
        p = publisher(["m1"])
        assert free_names(p) == {"directory", "m1"}
        system1 = par(p, subscriber("a"))
        system5 = par(p, *(subscriber(f"s{i}") for i in range(5)))
        assert system1.left is p and system5.left is p


class TestMonitoring:
    def test_monitor_sees_traffic(self):
        system = par(publisher(["m1"]), subscriber("alice"), monitor("log"))
        assert delivered(system, "log", "m1")

    def test_monitor_does_not_disturb_delivery(self):
        base = network(["m1"], ["alice"])
        with_mon = network(["m1"], ["alice"], monitors=["log"])
        assert delivered(base, "alice", "m1")
        assert delivered(with_mon, "alice", "m1")

    def test_simulation_run(self):
        tr = simulate(network(["m1"], ["alice"]), seed=2, max_steps=200)
        # directory advertisements are visible broadcasts
        assert tr.observed("directory") or tr.steps > 0
