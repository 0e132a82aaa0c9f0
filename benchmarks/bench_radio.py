"""Benchmark rows for the packet-radio application (intro's PRN domain)."""

import pytest

from repro.apps.radio import can_deliver, reliable_network
from repro.engine import Budget


@pytest.mark.parametrize("n_receivers", [1, 2, 3])
def test_reliable_delivery_scaling(benchmark, n_receivers):
    deliveries = [f"rx{i}" for i in range(n_receivers)]
    system = reliable_network("frame1", deliveries)

    def verify():
        return all(can_deliver(system, d, "frame1") for d in deliveries)

    assert benchmark(verify)


def test_sender_completion(benchmark):
    from repro.core.reduction import can_reach_barb
    system = reliable_network("frame1", ["rx0"])

    def verify():
        return can_reach_barb(system, "sent_ok",
                              budget=Budget(max_states=60_000),
                              collapse_duplicates=True)

    assert benchmark(verify)
