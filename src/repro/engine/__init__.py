"""``repro.engine`` — resource governance and three-valued verdicts.

The robustness substrate under every bounded analysis in the repro:

* :class:`Budget` / :class:`Meter` / :class:`CancelToken` — declarative
  resource caps (states, wall-clock deadline with an injectable clock,
  cooperative cancellation) and their consumption accounting;
* :class:`Verdict` / :class:`Truth` — three-valued results.  A tripped
  budget can only ever yield ``UNKNOWN(reason=...)``, never a definite
  answer;
* :func:`govern` — an ambient shared meter for composite analyses and
  the CLI's ``--timeout`` / ``--max-states``;
* :class:`BudgetExceeded` — the raw-explorer trip signal (a subclass of
  the historical :class:`StateSpaceExceeded`), carrying partial results
  for graceful degradation.

See ``docs/api.md`` for the two-layer contract (raw explorers raise,
verdict-level checkers degrade to UNKNOWN) and the facade
(:mod:`repro.api`) that most users should import instead.
"""

from .budget import (
    POLL_INTERVAL,
    UNLIMITED,
    Budget,
    BudgetExceeded,
    CancelToken,
    Meter,
    StateSpaceExceeded,
    active_meter,
    govern,
    resolve_meter,
)
from .verdict import IndeterminateVerdict, Truth, Verdict

__all__ = [
    "Budget", "BudgetExceeded", "CancelToken", "Meter",
    "StateSpaceExceeded", "IndeterminateVerdict", "Truth", "Verdict",
    "UNLIMITED", "POLL_INTERVAL",
    "active_meter", "govern", "resolve_meter",
]
