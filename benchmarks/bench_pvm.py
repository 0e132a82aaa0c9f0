"""Experiment EX3: Example 3, PVM group primitives — delivery rows."""

import pytest

from repro.apps.pvm import Bcast, Emit, JoinGroup, Receive, machine
from repro.core.reduction import can_reach_barb
from repro.engine import Budget


def group_system(n_members: int):
    tasks = {
        f"m{i}": [JoinGroup("grp"), Receive("x"), Emit(f"seen{i}", "x")]
        for i in range(n_members)
    }
    tasks["snd"] = [Bcast("grp", "news")]
    return machine(tasks)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bcast_delivery_scaling(benchmark, n):
    system = group_system(n)

    def verify():
        return all(
            can_reach_barb(system, f"seen{i}",
                           budget=Budget(max_states=60_000),
                           collapse_duplicates=True)
            for i in range(n))

    assert benchmark(verify)


def test_point_to_point(benchmark):
    from repro.apps.pvm import Send
    system = machine({
        "alice": [Send("bob", "m"), Emit("sent", "sent")],
        "bob": [Receive("x"), Emit("rcv", "x")],
    })

    def verify():
        return can_reach_barb(system, "rcv",
                              budget=Budget(max_states=30_000),
                              collapse_duplicates=True)

    assert benchmark(verify)
