#!/usr/bin/env python
"""Example 3 of the paper: PVM-style group communication.

Tasks own broadcast-fed mailboxes; groups are channels; membership is a
pool listening on the group channel.  The headline: a task can join a
group whose *name it received* — dynamic regrouping through name mobility,
which neither CBS (no mobility) nor the pi-calculus (no broadcast)
expresses directly.

Run:  python examples/pvm_groups_demo.py
"""

from repro.apps.pvm import (
    Bcast,
    Emit,
    JoinGroup,
    NewGroup,
    Receive,
    Send,
    Spawn,
    machine,
)
from repro.runtime.analysis import can_reach_barb
from repro.engine import Budget


def reaches(system, chan, budget=80_000):
    return can_reach_barb(system, chan, budget=Budget(max_states=budget),
                          collapse_duplicates=True)


def main() -> None:
    print("1) Group broadcast reaches every member, non-members unaffected")
    system = machine({
        "alice": [JoinGroup("news"), Receive("x"), Emit("alice_saw", "x")],
        "bob": [JoinGroup("news"), Receive("x"), Emit("bob_saw", "x")],
        "eve": [Receive("x"), Emit("eve_saw", "x")],
        "agency": [Bcast("news", "headline")],
    })
    print("   alice delivered:", reaches(system, "alice_saw"))
    print("   bob   delivered:", reaches(system, "bob_saw"))
    print("   eve   delivered:", reaches(system, "eve_saw", budget=4_000),
          "(never joined)")

    print("\n2) Dynamic groups: joining a group you were told about")
    system = machine({
        "owner": [NewGroup("g"), Send("worker", "g"),
                  Receive("ready"), Bcast("g", "job")],
        "worker": [Receive("gname"), JoinGroup("gname"),
                   Send("owner", "ok"), Receive("m"),
                   Emit("worker_got", "m")],
    })
    print("   worker received via learned group:",
          reaches(system, "worker_got"))

    print("\n3) Spawning children (PVM task creation)")
    system = machine({
        "root": [Spawn("kid", [Receive("x"), Emit("kid_got", "x")]),
                 Send("kid", "payload")],
    })
    print("   spawned child served:", reaches(system, "kid_got"))

    print("\n4) The mailbox protocol in the raw (Pool/Cell broadcast idiom)")
    from repro.apps.pvm import encode_task
    from repro.core import pretty
    task = encode_task([Receive("x"), Emit("seen", "x")], "addr")
    print("   {receive; emit}_addr =")
    print("   ", pretty(task)[:120], "...")


if __name__ == "__main__":
    main()
