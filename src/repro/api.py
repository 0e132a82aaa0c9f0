"""The stable high-level facade of the repro package.

Four verbs cover the common workflows, re-exported from ``repro`` itself::

    import repro

    p = repro.parse("a<v> | a(x).x!")
    v = repro.check("tau.a!", "a!", relation="barbed", weak=True)
    if v.is_true: ...                      # three-valued Verdict

    ex = repro.explore(p, budget=repro.Budget(max_states=500))
    ex.n_states, ex.complete               # graceful on budget trips

    repro.decide_axioms("a! + a!", "a!")   # exact, Section 5 procedure

Everything takes either a :class:`~repro.core.syntax.Process` or a source
string (parsed with the bpi-calculus grammar), and all options are
keyword-only.  Budgets are :class:`~repro.engine.budget.Budget` (or a
shared :class:`~repro.engine.budget.Meter`); inside ``with
repro.govern(budget):`` every call without an explicit ``budget=`` draws
from one ambient pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from typing import TYPE_CHECKING

from .core.parser import parse as _parse
from .core.syntax import Process
from .engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)
from .engine.verdict import Verdict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (lint uses obs)
    from .lint.diagnostics import LintReport

__all__ = ["parse", "check", "explore", "decide_axioms", "reach", "lint",
           "Exploration", "RELATIONS", "STRATEGY_RELATIONS"]


def parse(source: str) -> Process:
    """Parse bpi-calculus source into a :class:`Process` term."""
    return _parse(source)


def _as_process(p: "Process | str") -> Process:
    return _parse(p) if isinstance(p, str) else p


def _relations() -> dict[str, Callable[..., Verdict]]:
    from .equiv.barbed import barbed_bisimilar
    from .equiv.congruence import congruent
    from .equiv.labelled import labelled_bisimilar
    from .equiv.noisy import strict_bisimilar
    from .equiv.simulation import similar
    from .equiv.step import step_bisimilar
    return {
        "barbed": barbed_bisimilar,
        "step": step_bisimilar,
        "labelled": labelled_bisimilar,
        "noisy": strict_bisimilar,
        "congruence": congruent,
        "similar": similar,
    }


#: Relation names accepted by :func:`check` (and the CLI's ``eq``).
RELATIONS = ("barbed", "step", "labelled", "noisy", "congruence", "similar")


#: Relations whose checkers accept a ``strategy=`` knob.
STRATEGY_RELATIONS = ("barbed", "step", "labelled")


def check(p: "Process | str", q: "Process | str", *,
          relation: str = "labelled", weak: bool = False,
          budget: "Budget | Meter | None" = None,
          strategy: "str | None" = None,
          store: "Any | None" = None,
          calculus: "str | None" = None) -> Verdict:
    """Are *p* and *q* behaviourally equivalent?

    *relation* picks the checker — ``"barbed"``, ``"step"``,
    ``"labelled"`` (the default; all three coincide, Theorem 3),
    ``"noisy"`` (Definition 11), ``"congruence"`` (Definition 12, closes
    under substitutions) or ``"similar"`` (mutual simulation).  Returns a
    three-valued :class:`~repro.engine.verdict.Verdict`; ``UNKNOWN``
    means the *budget* tripped before the search completed.

    For the bisimilarity relations, *strategy* selects the checker core:
    ``"onthefly"`` (the default) decides lazily over the product graph
    with up-to closures, ``"global"`` materialises the bounded state
    space first (the test oracle).

    *calculus* selects the broadcast semantics from
    :mod:`repro.calculi.registry` — ``"bpi"`` (the paper's reliable
    broadcast, the default), ``"lossy"`` (per-listener message loss) or
    ``"wireless:a-b,b-c"`` (connectivity-graph reachability).

    *store* (a path or an open
    :class:`~repro.store.db.VerdictStore`) makes the call a thin client
    of the persistent verdict cache: the budget-aware reuse rule may
    serve the answer without searching, and a computed verdict is
    recorded for later requests.  Verdicts served from the store carry
    ``stats["store"] == "hit"``.
    """
    if relation not in RELATIONS:
        raise ValueError(
            f"unknown relation {relation!r}; pick one of {RELATIONS}")
    if store is not None:
        from .store.db import VerdictStore
        if isinstance(store, VerdictStore):
            return store.check(_as_process(p), _as_process(q),
                               relation=relation, weak=weak,
                               strategy=strategy, budget=budget,
                               calculus=calculus)
        with VerdictStore(store) as opened:
            return opened.check(_as_process(p), _as_process(q),
                                relation=relation, weak=weak,
                                strategy=strategy, budget=budget,
                                calculus=calculus)
    kwargs: dict[str, Any] = {"budget": budget}
    if relation != "similar":
        kwargs["weak"] = weak
    elif weak:
        kwargs["weak"] = True
    if calculus is not None:
        kwargs["calculus"] = calculus
    if strategy is not None:
        if relation not in STRATEGY_RELATIONS:
            raise ValueError(
                f"strategy= applies to {STRATEGY_RELATIONS}, "
                f"not {relation!r}")
        kwargs["strategy"] = strategy
    return _relations()[relation](_as_process(p), _as_process(q), **kwargs)


@dataclass(frozen=True)
class Exploration:
    """Result of :func:`explore`: the (possibly truncated) step LTS.

    ``complete`` is False when the budget tripped; the graph then holds
    exactly the states interned before the trip and ``reason`` says why
    (``"max-states"``, ``"deadline"``, ``"cancelled"``).  A trip on the
    root itself leaves an empty graph and ``root`` None.
    """

    lts: Any
    root: int | None
    complete: bool
    reason: str | None
    stats: dict[str, Any]

    @property
    def n_states(self) -> int:
        return self.lts.n_states

    @property
    def states(self) -> list[Process]:
        return self.lts.states

    def __repr__(self) -> str:
        flag = "complete" if self.complete else f"truncated({self.reason})"
        return f"<Exploration {self.n_states} states, {flag}>"


def explore(p: "Process | str", *,
            budget: "Budget | Meter | None" = None,
            close_binders: bool = True,
            calculus: "str | None" = None) -> Exploration:
    """Build the autonomous-step LTS of *p*, degrading gracefully.

    Unlike the raw :func:`~repro.lts.graph.build_step_lts` this never
    raises on a budget trip — the partial graph comes back with
    ``complete=False`` so callers can inspect what was reached.

    *calculus* picks the semantic backend
    (``"bpi"``/``"lossy"``/``"wireless:..."``).
    """
    from .lts.graph import DEFAULT_BUDGET, build_step_lts
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    try:
        lts, root = build_step_lts(_as_process(p), budget=meter,
                                   close_binders=close_binders,
                                   calculus=calculus)
    except BudgetExceeded as exc:
        lts, root = exc.partial
        return Exploration(lts=lts, root=root, complete=False,
                           reason=exc.reason, stats=dict(exc.stats))
    return Exploration(lts=lts, root=root, complete=True, reason=None,
                       stats=meter.stats())


def decide_axioms(p: "Process | str", q: "Process | str", *,
                  noisy: bool = False,
                  budget: "Budget | Meter | None" = None) -> Verdict:
    """Decide ``p ~c q`` with the Section 5 axiomatic procedure.

    Exact on finite (recursion-free) terms; *noisy* switches to the noisy
    congruence.  The procedure terminates on its own, so the default
    budget is unlimited — pass one to bound pathological inputs.
    """
    from .axioms.decide import congruent_finite, noisy_finite
    decider = noisy_finite if noisy else congruent_finite
    return decider(_as_process(p), _as_process(q), budget=budget)


def reach(p: "Process | str", channel: str, *,
          budget: "Budget | Meter | None" = None,
          collapse_duplicates: bool = True,
          calculus: "str | None" = None,
          presolve: bool = True) -> Verdict:
    """Can *p* reach a state offering a broadcast on *channel*?

    The flow pre-solver (:mod:`repro.flow`) answers provably-inert
    channels definitively without exploring (``stats["presolve"] ==
    "flow"`` on the verdict); ``presolve=False`` forces exploration.
    """
    from .runtime.analysis import can_reach_barb
    return can_reach_barb(_as_process(p), channel, budget=budget,
                          collapse_duplicates=collapse_duplicates,
                          calculus=calculus, presolve=presolve)


def lint(p: "Process | str", *,
         select: "str | list[str] | None" = None,
         ignore: "str | list[str] | None" = None,
         calculus: "str | None" = None) -> "LintReport":
    """Statically analyse *p*; returns a :class:`~repro.lint.LintReport`.

    Runs the registered passes (``BP101`` unguarded recursion, ``BP102``
    sort inconsistency, ``BP201`` deaf broadcast, ``BP202`` dead match
    branch, ``BP301`` tau-divergence risk, ``BP302`` binder hygiene —
    see :mod:`repro.lint.passes`).  When *p* is a source string it is
    parsed with a span table, so the report's findings carry caret-ready
    source excerpts; a pre-built :class:`Process` yields occurrence-path
    positions only.  *select*/*ignore* are code prefixes (``"BP2"``
    covers BP201 and BP202), comma-separated when given as one string.

    With a non-default *calculus*, the backend's extra well-formedness
    rules run as pass ``BP103`` (e.g. the wireless backend rejects terms
    that bind a topology cell); only backend-*specific* rejections fire,
    plain sort trouble stays with ``BP102``.
    """
    from .lint.engine import run_lint
    if isinstance(p, str):
        from .core.parser import parse_with_spans
        term, spans = parse_with_spans(p)
    else:
        term, spans = p, None
    return run_lint(term, spans=spans, select=select, ignore=ignore,
                    calculus=calculus)
