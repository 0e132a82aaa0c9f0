"""Budget-plumbing overhead gate, by exact counts.

The engine threads a :class:`~repro.engine.budget.Meter` through every
exploration loop (LTS build, reachability, partition refinement).  The
design promise is that *ungoverned* runs — no deadline, no cancel token,
just the state-cap arithmetic — pay essentially nothing for it: the meter
is two integer operations per interned state, and the unwatched fast path
(:attr:`Meter.watching` is False) never reads the clock.  A *watched*
meter (deadline or cancel token armed) amortises its polling over
:data:`~repro.engine.budget.POLL_INTERVAL` charges.

A wall-clock ratio measures the host as much as the meter (on a shared
2-CPU host, ``build_step_lts`` timed against itself ranged from 0.26x to
5.9x), so the gate counts instead.  On the canonical atomic-broadcast
workload, ``broadcast_star(12)``, explored with ``build_step_lts`` under
a budget whose clock is an injected read counter:

* an unwatched meter reads the clock 0 times after it is constructed;
* a watched meter (``deadline=3600``) reads it at most
  ``ceil(charges / POLL_INTERVAL)`` times;
* the meter charges one unit per state:
  ``meter.states == lts.n_states == 4097``.

The governed/plain wall-clock ratio is still measured and printed (run
pytest with ``-rP``, or this file as a script) as a number to read, not
a gate.
"""

from __future__ import annotations

import math
import time

from benchmarks.helpers import broadcast_star
from repro.core.cache import clear_caches
from repro.engine.budget import POLL_INTERVAL, Budget
from repro.lts.graph import build_step_lts

N_STAR = 12
#: Distinct states of ``broadcast_star(12)``: the root plus every subset
#: of the 12 replies still pending after the broadcast.
N_STATES = 4097
REPEATS = 3


class CountingClock:
    """An injectable clock that counts its reads and never advances."""

    def __init__(self) -> None:
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return 0.0


def _explore(budget: Budget):
    """Build the step LTS under *budget*; also return the clock reads
    made after the meter was constructed."""
    meter = budget.meter()
    before = budget.clock.reads
    lts, _root = build_step_lts(broadcast_star(N_STAR), budget=meter)
    return lts, meter, budget.clock.reads - before


def test_unwatched_meter_never_reads_the_clock():
    budget = Budget(max_states=1_000_000, clock=CountingClock())
    lts, meter, reads = _explore(budget)
    assert meter.states == lts.n_states == N_STATES
    assert reads == 0


def test_watched_meter_polls_once_per_interval():
    budget = Budget(max_states=1_000_000, deadline=3600.0,
                    clock=CountingClock())
    lts, meter, reads = _explore(budget)
    assert meter.states == lts.n_states == N_STATES
    assert 0 < reads <= math.ceil(meter.states / POLL_INTERVAL)


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        clear_caches()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def overhead_ratios() -> dict[str, float]:
    """Best-of-N wall clock of governed and watched builds over the
    default-budget build (reported, never asserted)."""
    p = broadcast_star(N_STAR)
    plain = _best_of(lambda: build_step_lts(p))
    governed = _best_of(
        lambda: build_step_lts(p, budget=Budget(max_states=1_000_000)))
    watched = _best_of(lambda: build_step_lts(
        p, budget=Budget(max_states=1_000_000, deadline=3600.0)))
    return {"plain_s": plain, "governed_ratio": governed / plain,
            "watched_ratio": watched / plain}


def test_report_overhead_ratio():
    ratios = overhead_ratios()
    print(f"broadcast_star({N_STAR}) step LTS: plain "
          f"{ratios['plain_s'] * 1e3:.0f} ms, governed "
          f"{ratios['governed_ratio']:.3f}x, watched "
          f"{ratios['watched_ratio']:.3f}x (reported, not gated)")


if __name__ == "__main__":
    test_unwatched_meter_never_reads_the_clock()
    test_watched_meter_polls_once_per_interval()
    test_report_overhead_ratio()
