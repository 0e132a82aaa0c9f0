"""Experiment EX3 — Example 3, PVM-like group communication semantics.

Checks the mailbox protocol, point-to-point send, group broadcast with
dynamic membership, and the headline feature: joining a group whose name
was *received* (broadcast + mobility, inexpressible in CBS or pi alone).
"""

from repro.apps.pvm import (
    Bcast,
    Emit,
    JoinGroup,
    LeaveGroup,
    NewGroup,
    Receive,
    Send,
    Spawn,
    cell,
    encode_task,
    machine,
    pool,
)
from repro.core.builder import out, par
from repro.core.freenames import free_names, is_closed
from repro.runtime.analysis import can_reach_barb
from repro.engine import Budget


def reaches(system, chan, max_states=30_000):
    return can_reach_barb(system, chan, budget=Budget(max_states=max_states),
                          collapse_duplicates=True)


class TestMailbox:
    def test_receive_delivers_message(self):
        task = encode_task([Receive("x"), Emit("seen", "x")], "alice")
        system = par(task, out("alice", "m1"))
        assert reaches(system, "seen")

    def test_no_message_no_delivery(self):
        task = encode_task([Receive("x"), Emit("seen", "x")], "alice")
        assert not reaches(task, "seen", max_states=2_000)

    def test_two_messages_both_retrievable(self):
        task = encode_task([Receive("x"), Emit("got", "x"),
                            Receive("y"), Emit("got", "y"),
                            Emit("done", "done")], "alice")
        system = par(task, out("alice", "m1", cont=out("alice", "m2")))
        assert reaches(system, "done")

    def test_cell_race_losers_keep_value(self):
        # two cells, one request: the losing cell must still hold its value
        from repro.core.builder import inp, nu
        from repro.core.syntax import Par
        system = nu("t", par(cell("mbox", "v1"), cell("mbox", "v2"),
                             out("mbox", "t"),
                             inp("t", ("x",), out("taken", "x"))))
        assert reaches(system, "taken")

    def test_send_reaches_address(self):
        sender = encode_task([Send("bob", "hello"), Emit("sent", "sent")], "alice")
        receiver = encode_task([Receive("x"), Emit("rcv", "x")], "bob")
        assert reaches(par(sender, receiver), "rcv")


class TestGroups:
    def test_bcast_reaches_member(self):
        system = machine({
            "m1": [JoinGroup("grp"), Receive("x"), Emit("seen1", "x")],
            "snd": [Bcast("grp", "news")],
        })
        assert reaches(system, "seen1")

    def test_bcast_reaches_all_members(self):
        system = machine({
            "m1": [JoinGroup("grp"), Receive("x"), Emit("seen1", "x")],
            "m2": [JoinGroup("grp"), Receive("x"), Emit("seen2", "x")],
            "snd": [Bcast("grp", "news")],
        })
        assert reaches(system, "seen1")
        assert reaches(system, "seen2")

    def test_non_member_unaffected(self):
        system = machine({
            "out1": [Receive("x"), Emit("leak", "x")],
            "snd": [Bcast("grp", "news")],
        })
        assert not reaches(system, "leak", max_states=3_000)

    def test_leavegroup_stops_delivery(self):
        # member leaves before the broadcast: its mailbox stays empty
        system = machine({
            "m1": [JoinGroup("grp"), LeaveGroup("grp"),
                   Send("snd", "left"),             # handshake: left first
                   Receive("x"), Emit("leak", "x")],
            "snd": [Receive("go"), Bcast("grp", "news")],
        })
        assert not reaches(system, "leak", max_states=20_000)

    def test_newgroup_is_private(self):
        # a fresh group's broadcasts cannot be heard outside
        system = machine({
            "m1": [NewGroup("g"), Bcast("g", "secret")],
            "spy": [Receive("x"), Emit("leak", "x")],
        })
        assert not reaches(system, "leak", max_states=5_000)


class TestMobility:
    def test_join_received_group(self):
        """The headline: a task joins a group whose *name it received* —
        dynamic reconfiguration via name mobility over broadcast."""
        system = machine({
            "owner": [NewGroup("g"), Send("joiner", "g"),
                      Receive("k"), Bcast("g", "payload")],
            "joiner": [Receive("gname"), JoinGroup("gname"),
                       Send("owner", "ready"),
                       Receive("m"), Emit("delivered", "m")],
        })
        assert reaches(system, "delivered", max_states=60_000)

    def test_spawned_child_reachable(self):
        system = machine({
            "root": [Spawn("kid", [Receive("x"), Emit("child_got", "x")]),
                     Send("kid", "task")],
        })
        assert reaches(system, "child_got")


class TestEncodingShape:
    def test_task_is_closed(self):
        t = encode_task([Receive("x"), Emit("seen", "x")], "a")
        assert is_closed(t)
        assert free_names(t) == {"a", "seen"}

    def test_pool_kill(self):
        from repro.core.builder import inp
        p = par(pool("addr", "mbox", "kill"), out("kill"))
        # after the kill fires, feeding the address leaves no listener:
        # the address input capability disappears along some run
        from repro.lts.weak import reachable_by_steps
        from repro.core.discard import discards
        assert any(discards(s, "addr") for s in reachable_by_steps(p, budget=Budget(max_states=100)))
