"""Packet-radio-style reliable multicast over a lossy medium.

The introduction names *Packet Radio Networks* among the systems the
calculus targets.  This application models the canonical problem there:
a sender multicasts frames over a medium that may silently drop them, and
a retransmission protocol recovers reliability.

Model:

* the **medium** relays frames from the sender's antenna channel ``air``
  to the receivers' channel ``wave`` — but for each frame it internally
  chooses (tau-choice) to deliver or to drop: loss is an *internal* action
  of the medium, exactly as in classical protocol models;
* the **sender** retransmits each frame until it hears a fresh-named
  acknowledgement (stop-and-wait, names as nonces: each transmission
  carries a private ack channel — mobility again);
* **receivers** deliver each frame to their output and acknowledge; a
  genuine broadcast medium reaches *all* receivers in one delivery.

Checkable properties (tests):

* possible delivery despite arbitrary loss (the retransmission loop can
  always win) — may-style liveness;
* no corruption: only sent payloads are ever delivered — safety invariant;
* the unreliable variant (no retransmission) genuinely can lose: there is
  a quiescent state with no delivery.

Cellular coverage (the ``"wireless"`` backend)
----------------------------------------------
The lossy medium above encodes loss *inside the term*.  The second half
of this module models the orthogonal radio phenomenon — **range** — with
the graph-topology backend: each station broadcasts on its own radio
channel (its *cell*), and a :class:`~repro.calculi.wireless.Topology`
edge between two cells means the stations are in radio range.  A
broadcast then reaches exactly the sender's topology neighbourhood;
:func:`handover` re-attaches a mobile's cell to a new base station by
mutating the topology (a new backend per configuration), so mobility is
a sequence of reachability analyses under evolving graphs.
"""

from __future__ import annotations

from typing import Sequence

from ..core.builder import call, define, inp, nu, out, par, tau
from ..core.names import Name
from ..core.reduction import can_reach_barb
from ..core.syntax import Process
from ..engine.budget import Budget, resolve_meter

AIR = "air"      # sender -> medium
WAVE = "wave"    # medium -> receivers

#: Default budgets for :func:`can_deliver` and :func:`can_hear`.
DEFAULT_BUDGET = Budget(max_states=60_000)
DEFAULT_HEAR_BUDGET = Budget(max_states=10_000)


def lossy_medium(air: Name = AIR, wave: Name = WAVE) -> Process:
    """Relay each (payload, ack) frame from *air* to *wave* — or drop it.

    The drop is a tau-choice after reception: the sender cannot observe
    which happened (loss is invisible until a timeout/retry).
    """
    relay = define(
        "Medium", ("i", "o"),
        lambda i, o: inp(i, ("m", "k"), tau(out(o, "m", "k",
                                               cont=call("Medium", i, o)))
                         + tau(call("Medium", i, o))))
    return relay(air, wave)


def perfect_medium(air: Name = AIR, wave: Name = WAVE) -> Process:
    """The lossless reference medium."""
    relay = define(
        "PMedium", ("i", "o"),
        lambda i, o: inp(i, ("m", "k"),
                         out(o, "m", "k", cont=call("PMedium", i, o))))
    return relay(air, wave)


def persistent_sender(payload: Name, air: Name = AIR,
                      done: Name = "sent_ok") -> Process:
    """Stop-and-wait: retransmit *payload* until an ack arrives.

    Each transmission carries a fresh private ack channel (a nonce), so a
    late ack for an abandoned transmission cannot be confused with the
    current one.
    """
    send = define(
        "Sender", ("m", "i", "d"),
        lambda m, i, d: nu("k", out(i, m, "k",
                                    cont=inp("k", (), out(d))
                                    + tau(call("Sender", m, i, d)))),
        constants=())
    return send(payload, air, done)


def oneshot_sender(payload: Name, air: Name = AIR,
                   done: Name = "sent_ok") -> Process:
    """Fire-and-forget (the unreliable baseline)."""
    return nu("k", out(air, payload, "k", cont=out(done)))


def receiver(deliver: Name, wave: Name = WAVE) -> Process:
    """Deliver every frame and acknowledge it."""
    recv = define(
        "Receiver", ("o", "w"),
        lambda o, w: inp(w, ("m", "k"),
                         out(o, "m", cont=out("k", cont=call("Receiver",
                                                             o, w)))))
    return recv(deliver, wave)


def reliable_network(payload: Name, deliveries: Sequence[Name],
                     lossy: bool = True) -> Process:
    """Sender + medium + one receiver per delivery channel."""
    medium = lossy_medium() if lossy else perfect_medium()
    return par(persistent_sender(payload), medium,
               *(receiver(d) for d in deliveries))


def unreliable_network(payload: Name, deliveries: Sequence[Name]) -> Process:
    return par(oneshot_sender(payload), lossy_medium(),
               *(receiver(d) for d in deliveries))


def _delivery_probe(deliver: Name, payload: Name, signal: Name) -> Process:
    """Persistent watcher: broadcasts *signal* when *payload* comes past."""
    from ..core.builder import match_eq
    watch = define(
        "RWatch", ("d", "e", "s"),
        lambda d, e, s: inp(d, ("m",), match_eq(
            "m", e, out(s), call("RWatch", d, e, s))))
    return watch(deliver, payload, signal)


def can_deliver(system: Process, deliver: Name, payload: Name, *, budget=None):
    """May the payload ever be delivered on *deliver*?

    Returns the three-valued :class:`~repro.engine.Verdict` of the
    underlying reachability query.
    """
    signal = f"{deliver}_rx"
    probe = _delivery_probe(deliver, payload, signal)
    return can_reach_barb(par(system, probe), signal,
                          budget=resolve_meter(budget, DEFAULT_BUDGET),
                          collapse_duplicates=True)


# --------------------------------------------------------------------------
# Cellular coverage: channels as cells, range as topology ("wireless")
# --------------------------------------------------------------------------

def base_station(cell: Name, payload: Name) -> Process:
    """A base station broadcasting *payload* in its own *cell*."""
    return out(cell, payload)


def mobile_station(radio: Name, deliver: Name) -> Process:
    """A mobile tuned to its *radio* cell, delivering every frame heard."""
    recv = define(
        "Mobile", ("r", "o"),
        lambda r, o: inp(r, ("m",), out(o, "m", cont=call("Mobile", r, o))))
    return recv(radio, deliver)


def cellular_backend(*links: "tuple[Name, Name]"):
    """The wireless backend for a set of in-range (cell, cell) pairs."""
    from ..calculi.wireless import Topology, WirelessBackend
    return WirelessBackend(Topology.of(*links))


def handover(backend, radio: Name, old_cell: Name, new_cell: Name):
    """Re-attach the mobile on *radio* from *old_cell* to *new_cell*.

    Topology mutation is meta-level: the result is a *new* backend (the
    old configuration stays analysable), mirroring how the wireless
    calculi treat node movement as a change of the connectivity graph.
    """
    return backend.disconnect(radio, old_cell).connect(radio, new_cell)


def can_hear(system: Process, deliver: Name, *, calculus,
             budget=None):
    """May the mobile delivering on *deliver* ever receive a frame?

    *calculus* is the wireless backend (or registry spec) describing the
    current radio ranges; with no relevant edge the broadcast never
    reaches the mobile's cell and the verdict is definitely false.
    """
    return can_reach_barb(system, deliver,
                          budget=resolve_meter(budget, DEFAULT_HEAR_BUDGET),
                          collapse_duplicates=True, calculus=calculus)
