"""Resource budgets for bounded analyses.

Every analysis in this repro is a bounded search over a potentially
infinite state space — image-finiteness (Theorem 1 / Definition 9 of the
paper) only guarantees *per-state* finiteness, so every checker needs a
cap.  This module centralises those caps:

* :class:`Budget` — an immutable resource *specification*: a state cap, a
  wall-clock deadline (with an injectable clock for deterministic tests)
  and a cooperative :class:`CancelToken`;
* :class:`Meter` — one *consumption* of a budget.  Exploration loops call
  :meth:`Meter.charge` per state/pair and :meth:`Meter.tick` on other
  iterations; a tripped meter raises :class:`BudgetExceeded`;
* :func:`govern` — an ambient (contextvar-scoped) meter: every engine
  entry point called inside ``with govern(budget):`` that is not given an
  explicit budget shares one resource pool.  This is how composite
  checkers (congruence over many substitutions, a driver running many
  checks) govern their sub-searches; note an explicit ``budget=`` beats
  the ambient pool, so governed calls must leave ``budget`` unset.

The contract has two layers:

* **raw explorers** (``build_step_lts``, ``reachable_states``,
  ``solve_game``, ...) raise :class:`BudgetExceeded` when the meter
  trips, attaching whatever partial result exists to ``exc.partial``;
* **verdict-level checkers** (``labelled_bisimilar``, ``can_reach_barb``,
  ...) catch the trip and return
  :class:`~repro.engine.verdict.Verdict` ``UNKNOWN`` — a tripped budget
  can *never* produce a definite answer.

:class:`StateSpaceExceeded` (historically defined in
``repro.core.reduction``, still re-exported there) lives here so that
``except StateSpaceExceeded`` written against older versions keeps
catching budget trips.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..obs import metrics as _metrics
from ..obs.state import STATE as _OBS


class StateSpaceExceeded(RuntimeError):
    """Raised when a bounded search exceeds its state budget."""


class BudgetExceeded(StateSpaceExceeded):
    """A resource budget tripped mid-search.

    ``reason`` is machine-readable: ``"max-states"``, ``"deadline"`` or
    ``"cancelled"``.  ``stats`` is the tripping meter's consumption
    snapshot; ``partial`` carries whatever partial result the raising
    explorer had built (the LTS so far, the reachable prefix, ...) for
    graceful degradation at the verdict layer.
    """

    def __init__(self, reason: str, message: str, *,
                 stats: dict[str, Any] | None = None,
                 partial: Any = None):
        super().__init__(message)
        self.reason = reason
        self.stats = dict(stats or {})
        self.partial = partial


class CancelToken:
    """Cooperative cancellation flag, checked by exploration loops.

    Thread-safe by virtue of being a single boolean flip: any thread (or
    signal handler) may call :meth:`cancel`; the governed search observes
    it at its next poll and unwinds with ``UNKNOWN(reason='cancelled')``.
    """

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:
        return f"CancelToken(cancelled={self._cancelled})"


#: How many charge/tick calls between deadline/cancellation polls.  Polls
#: are two attribute reads plus (with a deadline) one clock call; 64 keeps
#: the governed overhead well under the 2% benchmark gate while bounding
#: the reaction latency to a cancel/deadline.
POLL_INTERVAL = 64


@dataclass(frozen=True)
class Budget:
    """An immutable resource specification for one bounded analysis.

    ``max_states`` caps the number of *charged units* — states, pairs,
    tau-closure members: whatever the governed search interns counts
    against one shared pool.  ``deadline`` is in seconds of wall clock
    from the moment the meter starts; ``clock`` is injectable so tests
    can trip deadlines deterministically.  ``cancel`` is polled
    cooperatively.  All fields default to "unlimited".
    """

    max_states: int | None = None
    deadline: float | None = None
    cancel: CancelToken | None = None
    clock: Callable[[], float] = field(default=time.monotonic, repr=False)

    def meter(self) -> "Meter":
        """Start consuming this budget (the clock starts now)."""
        return Meter(self)

    def scaled(self, factor: float) -> "Budget":
        """A copy with numeric limits multiplied by *factor* (for the
        budget-monotonicity property: UNKNOWN at B may become definite at
        ``B.scaled(10)``, never the reverse)."""
        return Budget(
            max_states=(None if self.max_states is None
                        else max(1, int(self.max_states * factor))),
            deadline=(None if self.deadline is None
                      else self.deadline * factor),
            cancel=self.cancel, clock=self.clock)


#: The all-unlimited budget — metering without limits, used as the
#: fallback when neither an explicit nor an ambient budget is given and
#: the call site declares no default of its own.
UNLIMITED = Budget()


class Meter:
    """Mutable consumption state of one :class:`Budget`.

    Shared freely between the phases of a composite analysis (graph
    build, then refinement; game exploration, then sub-checks): all
    phases draw from the same pool, and once tripped every further
    ``charge``/``tick`` re-raises immediately so a governed composite
    short-circuits to UNKNOWN.
    """

    __slots__ = ("budget", "states", "tripped", "_limit", "_deadline_at",
                 "_cancel", "_clock", "_countdown", "_watching", "_t0")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.states = 0
        self.tripped: str | None = None
        self._limit = budget.max_states
        self._cancel = budget.cancel
        self._clock = budget.clock
        self._t0 = self._clock()
        self._deadline_at = (None if budget.deadline is None
                             else self._t0 + budget.deadline)
        self._watching = (self._deadline_at is not None
                          or self._cancel is not None)
        self._countdown = POLL_INTERVAL

    # -- consumption ------------------------------------------------------
    def charge(self, n: int = 1) -> None:
        """Account for *n* newly interned states/pairs; raise on trip."""
        if self.tripped is not None:
            self._reraise()
        self.states += n
        if self._limit is not None and self.states > self._limit:
            self._trip("max-states",
                       f"state budget of {self._limit} exhausted")
        if self._watching:
            self._countdown -= n
            if self._countdown <= 0:
                self._poll()

    def tick(self) -> None:
        """Cheap per-iteration heartbeat: deadline/cancellation only."""
        if self.tripped is not None:
            self._reraise()
        if self._watching:
            self._countdown -= 1
            if self._countdown <= 0:
                self._poll()

    def check(self) -> None:
        """Force an immediate deadline/cancellation poll."""
        if self.tripped is not None:
            self._reraise()
        if self._watching:
            self._poll()

    # -- introspection ----------------------------------------------------
    @property
    def watching(self) -> bool:
        """True when deadline/cancellation polling is live.

        Hot loops that never intern states (partition refinement, game
        back-propagation) skip ticking entirely when nothing is watched,
        keeping ungoverned runs at zero metering overhead.
        """
        return self._watching or self.tripped is not None

    def elapsed(self) -> float:
        return self._clock() - self._t0

    def remaining_states(self) -> int | None:
        if self._limit is None:
            return None
        return max(0, self._limit - self.states)

    def stats(self) -> dict[str, Any]:
        """Consumption snapshot (embedded in verdicts and bench rows)."""
        return {
            "states": self.states,
            "max_states": self._limit,
            "elapsed_s": self.elapsed(),
            "deadline_s": self.budget.deadline,
            "tripped": self.tripped,
        }

    def __repr__(self) -> str:
        cap = "inf" if self._limit is None else str(self._limit)
        flag = f", tripped={self.tripped!r}" if self.tripped else ""
        return f"Meter(states={self.states}/{cap}{flag})"

    # -- tripping ---------------------------------------------------------
    def _poll(self) -> None:
        self._countdown = POLL_INTERVAL
        if self._cancel is not None and self._cancel.cancelled:
            self._trip("cancelled", "search cancelled cooperatively")
        if self._deadline_at is not None and self._clock() > self._deadline_at:
            self._trip("deadline",
                       f"deadline of {self.budget.deadline}s exceeded")

    def _trip(self, reason: str, message: str) -> None:
        self.tripped = reason
        if _OBS.enabled:
            _metrics.inc("engine.budget_tripped")
        raise BudgetExceeded(reason, message, stats=self.stats())

    def _reraise(self) -> None:
        raise BudgetExceeded(self.tripped or "max-states",
                             f"budget already tripped ({self.tripped})",
                             stats=self.stats())


# ---------------------------------------------------------------------------
# Ambient governance
# ---------------------------------------------------------------------------

_ACTIVE: ContextVar[Meter | None] = ContextVar("repro_engine_meter",
                                               default=None)


def active_meter() -> Meter | None:
    """The ambient meter installed by the innermost :func:`govern`."""
    return _ACTIVE.get()


@contextmanager
def govern(budget: "Budget | Meter") -> Iterator[Meter]:
    """Install *budget* as the ambient resource pool for the block.

    Every engine entry point called inside the block without an explicit
    ``budget=`` draws from this single shared meter — the mechanism
    behind the CLI's ``--timeout``/``--max-states`` and behind composite
    checkers that must not let a sub-search out-live the whole.
    """
    meter = budget if isinstance(budget, Meter) else budget.meter()
    token = _ACTIVE.set(meter)
    try:
        yield meter
    finally:
        _ACTIVE.reset(token)


def resolve_meter(budget: "Budget | Meter | None",
                  default: Budget | None = None) -> Meter:
    """The meter a bounded entry point should draw from.

    Precedence: an explicit ``budget=`` (a :class:`Budget` starts a fresh
    meter; a :class:`Meter` is shared as-is) beats the ambient
    :func:`govern` meter, which beats the call site's *default* budget,
    which beats :data:`UNLIMITED`.
    """
    if isinstance(budget, Meter):
        return budget
    if isinstance(budget, Budget):
        return budget.meter()
    if budget is not None:
        raise TypeError(
            f"budget must be a Budget, a Meter or None, got {type(budget).__name__}")
    active = _ACTIVE.get()
    if active is not None:
        return active
    return (default if default is not None else UNLIMITED).meter()

