#!/usr/bin/env python
"""Packet-radio reliable multicast — lossy broadcast + retransmission.

The paper's introduction names Packet Radio Networks as a target domain;
this demo builds the canonical stop-and-wait multicast over a dropping
medium and verifies its properties.

Run:  python examples/radio_demo.py
"""

from repro.apps.radio import (
    can_deliver,
    reliable_network,
    unreliable_network,
)
from repro.core.reduction import barbs
from repro.engine import Budget
from repro.runtime.analysis import can_reach_barb, find_quiescent
from repro.runtime.simulator import run


def main() -> None:
    print("1) Reliable multicast over a lossy medium")
    system = reliable_network("frame1", ["rx_a", "rx_b"])
    print("   rx_a can receive frame1:", can_deliver(system, "rx_a", "frame1"))
    print("   rx_b can receive frame1:", can_deliver(system, "rx_b", "frame1"))
    print("   sender can learn completion:",
          can_reach_barb(system, "sent_ok", budget=Budget(max_states=60_000),
                         collapse_duplicates=True))

    print("\n2) The fire-and-forget baseline really loses frames")
    from repro.apps.radio import _delivery_probe
    from repro.core.builder import par
    from repro.core.discard import discards
    naive = par(unreliable_network("frame1", ["rx_a"]),
                _delivery_probe("rx_a", "frame1", "got"))
    quiescent = find_quiescent(naive, budget=Budget(max_states=20_000))
    lost = [s for s in quiescent if not discards(s, "rx_a")]
    print(f"   quiescent outcomes: {len(quiescent)}; frame lost in"
          f" {len(lost)} of them (watcher still waiting)")

    print("\n3) A sample run (seeded) of the reliable protocol")
    trace = run(reliable_network("frame1", ["rx_a"]), seed=5, max_steps=600,
                stop_on_barb="sent_ok")
    retransmissions = len(trace.payloads("air"))
    print(f"   transmissions on air: {retransmissions};"
          f" completed: {trace.observed('sent_ok')}")

    print("\n4) Cellular coverage and handover (the 'wireless' backend)")
    from repro.apps.radio import (
        base_station,
        can_hear,
        cellular_backend,
        handover,
        mobile_station,
    )
    from repro.core.builder import par as compose
    city = compose(base_station("cell_east", "frame2"),
                   base_station("cell_west", "frame3"),
                   mobile_station("mob", "screen"))
    east = cellular_backend(("mob", "cell_east"))
    print("   attached to east, hears east broadcast:",
          can_hear(city, "screen", calculus=east))
    print("   west cell is out of range:",
          can_hear(compose(base_station("cell_west", "frame3"),
                           mobile_station("mob", "screen")),
                   "screen", calculus=east))
    west = handover(east, "mob", "cell_east", "cell_west")
    print("   after handover to west, hears west broadcast:",
          can_hear(compose(base_station("cell_west", "frame3"),
                           mobile_station("mob", "screen")),
                   "screen", calculus=west))


if __name__ == "__main__":
    main()
