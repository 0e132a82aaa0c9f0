"""Publish/subscribe with dynamic topics — the introduction's motivations,
as a worked system.

The paper's introduction sells broadcast on three promises:

1. *"processes may interact without having explicit knowledge of each
   other"* — subscribers never learn the publisher's identity, only the
   topic channel;
2. *"receivers may be dynamically added or deleted without modifying the
   emitter"* — subscribing is just starting to listen; unsubscribing is
   stopping; the publisher's term never changes;
3. *"activity of a process can be monitored without modifying the
   behaviour of the observed process"* — a monitor is one more listener.

The system:

* a **publisher** creates a private topic channel, then alternates
  advertising it on a public directory channel with publishing payloads
  on it (re-advertising lets late subscribers discover the topic — the
  emitter is oblivious to who listens);
* a **subscriber** hears an advertisement, then relays every payload it
  receives onto its private delivery channel;
* a **monitor** is a subscriber that logs instead of delivering.

All three promises become checkable properties (see ``tests/test_pubsub``):
every current subscriber gets every subsequent payload in one broadcast,
late subscribers catch later payloads, and adding a monitor leaves the
publisher's term and the subscribers' deliveries untouched.
"""

from __future__ import annotations

from typing import Sequence

from ..core.builder import call, define, inp, nu, out, par
from ..core.names import Name
from ..core.syntax import Process
from ..engine.budget import Budget, resolve_meter
from ..runtime.analysis import can_reach_barb
from ..runtime.simulator import run
from ..runtime.trace import Trace

DIRECTORY = "directory"

#: Default budget for :func:`delivered`.
DEFAULT_BUDGET = Budget(max_states=60_000)


def publisher(payloads: Sequence[Name], directory: Name = DIRECTORY) -> Process:
    """Create a fresh topic; advertise + publish each payload in turn.

    Advertise-then-publish per payload means a subscriber that appears
    between payloads still discovers the topic — without the publisher
    knowing or caring (promise 2).
    """
    body: Process = out(directory, "topic")  # final advertisement (lets
    # subscribers arriving after the last payload still bind the topic)
    for m in reversed(payloads):
        body = out(directory, "topic", cont=out("topic", m, cont=body))
    return nu("topic", body)


def subscriber(deliver: Name, directory: Name = DIRECTORY) -> Process:
    """Discover a topic, then relay every payload to *deliver*."""
    relay = define(
        "Relay", ("t", "d"),
        lambda t, d: inp(t, ("m",), out(d, "m", cont=call("Relay", t, d))))
    return inp(directory, ("t",), relay("t", deliver))


def monitor(log: Name, directory: Name = DIRECTORY) -> Process:
    """A monitor is just another subscriber (promise 3)."""
    return subscriber(log, directory)


def late_subscriber(trigger: Name, deliver: Name,
                    directory: Name = DIRECTORY) -> Process:
    """A subscriber that only starts after a broadcast on *trigger*."""
    return inp(trigger, (), subscriber(deliver, directory))


def network(payloads: Sequence[Name], subscribers: Sequence[Name],
            monitors: Sequence[Name] = ()) -> Process:
    """Publisher + one subscriber per delivery channel (+ monitors)."""
    parts: list[Process] = [publisher(payloads)]
    parts += [subscriber(d) for d in subscribers]
    parts += [monitor(m) for m in monitors]
    return par(*parts)


def delivered(system: Process, deliver: Name, payload: Name, *, budget=None):
    """Can *payload* be delivered on *deliver*?  (Bounded search.)

    Returns the three-valued :class:`~repro.engine.Verdict` of the
    underlying reachability query.
    """
    signal = f"{deliver}_got_{payload}"
    probe = _eq_probe(deliver, payload, signal)
    return can_reach_barb(par(system, probe), signal,
                          budget=resolve_meter(budget, DEFAULT_BUDGET),
                          collapse_duplicates=True)


def _eq_probe(deliver: Name, expected: Name, signal: Name) -> Process:
    """A persistent listener signalling when *expected* comes past."""
    from ..core.builder import match_eq
    watch = define(
        "Watch", ("d", "e", "s"),
        lambda d, e, s: inp(d, ("m",), match_eq(
            "m", e, out(s), call("Watch", d, e, s))))
    return watch(deliver, expected, signal)


def simulate(system: Process, *, seed: int = 0, max_steps: int = 400) -> Trace:
    return run(system, seed=seed, max_steps=max_steps)
