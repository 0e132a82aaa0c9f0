"""repro — a full implementation of the bpi-calculus of Ene & Muntean (2001).

A broadcast-based process calculus for reconfigurable communicating
systems: broadcast is the only communication primitive, channels are
first-class and mobile (pi-calculus-style name passing), and the theory —
three coinciding behavioural equivalences, their induced congruence, and a
complete axiomatisation — is implemented as executable, tested code.

Packages
--------
``repro.core``     syntax, operational semantics, observables
``repro.lts``      finite LTS construction and partition refinement
``repro.equiv``    barbed / step / labelled bisimilarities, congruence
``repro.axioms``   the axiom system A, normal forms, decision procedure
``repro.calculi``  baseline calculi (CBS, pi) and encodings
``repro.apps``     the paper's examples as runnable applications
``repro.runtime``  a seeded simulator for closed broadcast systems
``repro.obs``      tracing spans, metrics and progress hooks (off by default)
``repro.engine``   budgets, meters and three-valued verdicts
``repro.lint``     static analysis (BP diagnostics) over process terms
``repro.flow``     channel-capability flow analysis + static pre-solver
``repro.store``    persistent verdict cache + batch analysis service
``repro.api``      the stable high-level facade (re-exported here)

Facade
------
The common workflows are four verbs, importable straight off the package::

    import repro
    p = repro.parse("a<v> | a(x).x!")
    repro.check("tau.a!", "a!", relation="barbed", weak=True)
    repro.explore(p, budget=repro.Budget(max_states=500))
    repro.decide_axioms("a! + a!", "a!")
    repro.api.lint("nu x x!").format_text()   # static analysis (BP codes)

Every bounded analysis takes a keyword-only ``budget=`` (a
:class:`repro.Budget`) and returns a three-valued :class:`repro.Verdict`
— ``UNKNOWN`` when the budget tripped, never a silently-wrong definite
answer.
"""

import sys as _sys

from ._lazy import lazy_exports
from .api import Exploration, check, decide_axioms, explore, parse, reach
from .engine import (
    Budget,
    BudgetExceeded,
    CancelToken,
    IndeterminateVerdict,
    Meter,
    Truth,
    Verdict,
    govern,
)

# Process terms are deep immutable trees (a long-running broadcast system
# easily accumulates hundreds of parallel components); structural equality
# and canonicalization recurse over them, so give CPython head-room.
_sys.setrecursionlimit(max(_sys.getrecursionlimit(), 100_000))

__version__ = "1.2.0"

# A subpackage loads the first time it is read, so ``import repro`` costs
# only the facade, the engine vocabulary and ``obs``; see "Import
# layering" in docs/architecture.md.  NB: ``repro.lint`` is the
# static-analysis *package*; the facade verb is ``repro.api.lint``
# (re-exporting the verb here would shadow the package).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".": ("apps", "axioms", "calculi", "core", "engine", "equiv", "flow",
          "lint", "lts", "obs", "runtime", "store"),
})
__all__ += [
    # facade verbs
    "parse", "check", "explore", "decide_axioms", "reach", "Exploration",
    # engine vocabulary
    "Budget", "Meter", "CancelToken", "BudgetExceeded", "govern",
    "Verdict", "Truth", "IndeterminateVerdict",
    "__version__",
]
