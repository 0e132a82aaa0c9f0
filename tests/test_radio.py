"""Tests for the packet-radio reliable multicast application."""

from repro.apps.radio import (
    can_deliver,
    lossy_medium,
    oneshot_sender,
    perfect_medium,
    persistent_sender,
    receiver,
    reliable_network,
    unreliable_network,
)
from repro.core.builder import par
from repro.core.reduction import barbs
from repro.runtime.analysis import find_quiescent, invariant_holds
from repro.engine import Budget


class TestReliableProtocol:
    def test_delivery_despite_loss(self):
        system = reliable_network("frame1", ["rx_a"])
        assert can_deliver(system, "rx_a", "frame1")

    def test_multicast_reaches_all(self):
        system = reliable_network("frame1", ["rx_a", "rx_b"])
        assert can_deliver(system, "rx_a", "frame1")
        assert can_deliver(system, "rx_b", "frame1")

    def test_no_corruption_invariant(self):
        # only the sent payload is ever delivered: no state barbs a
        # delivery channel carrying a foreign name (safety over the
        # collapsed reachable set)
        system = reliable_network("frame1", ["rx_a"])
        assert not can_deliver(system, "rx_a", "garbage", budget=Budget(max_states=8_000))

    def test_perfect_medium_also_works(self):
        system = reliable_network("frame1", ["rx_a"], lossy=False)
        assert can_deliver(system, "rx_a", "frame1")

    def test_sender_learns_completion(self):
        from repro.runtime.analysis import can_reach_barb
        system = reliable_network("frame1", ["rx_a"])
        assert can_reach_barb(system, "sent_ok", budget=Budget(max_states=60_000),
                              collapse_duplicates=True)


class TestUnreliableBaseline:
    def test_loss_really_loses(self):
        # compose a watcher for the delivery; in a lost run the system
        # quiesces with the watcher still listening (never matched), in a
        # delivered run the watcher has fired and is gone
        from repro.apps.radio import _delivery_probe
        from repro.core.discard import discards
        system = par(unreliable_network("frame1", ["rx_a"]),
                     _delivery_probe("rx_a", "frame1", "got"))
        quiescent = find_quiescent(system, budget=Budget(max_states=20_000))
        lost = [s for s in quiescent if not discards(s, "rx_a")]
        delivered = [s for s in quiescent if discards(s, "rx_a")]
        assert lost, "a dropping run must exist"
        assert delivered, "a delivering run must exist"

    def test_reliable_protocol_never_quiesces_unlucky(self):
        # the persistent sender retries forever: no lost-quiescent state
        from repro.apps.radio import _delivery_probe
        from repro.core.discard import discards
        system = par(reliable_network("frame1", ["rx_a"]),
                     _delivery_probe("rx_a", "frame1", "got"))
        quiescent = find_quiescent(system, budget=Budget(max_states=30_000))
        assert all(discards(s, "rx_a") for s in quiescent)

    def test_delivery_still_possible(self):
        system = unreliable_network("frame1", ["rx_a"])
        assert can_deliver(system, "rx_a", "frame1", budget=Budget(max_states=20_000))


class TestComponents:
    def test_medium_relays(self):
        from repro.core.builder import nu, out
        from repro.runtime.analysis import can_reach_barb
        system = par(lossy_medium(), nu("k", out("air", "m", "k")),
                     receiver("dst"))
        assert can_reach_barb(system, "dst", budget=Budget(max_states=5_000),
                              collapse_duplicates=True)

    def test_receiver_acks(self):
        from repro.core.builder import out
        from repro.runtime.analysis import can_reach_barb
        system = par(receiver("dst"), out("wave", "m", "ackchan"))
        assert can_reach_barb(system, "ackchan", budget=Budget(max_states=2_000),
                              collapse_duplicates=True)
