"""Saturation utilities: reflexive-transitive closures over LTSs.

Weak equivalences are checked as strong ones over saturated successor
relations.  Two consumers with different access patterns share the code:

* the *global* checkers saturate an explicit integer graph all at once
  (:func:`reachability_closure`) before partition refinement;
* the *on-the-fly* product core (:mod:`repro.equiv.onthefly`) asks for
  one state's tau-reach at a time and must not pay for the rest of the
  graph — :class:`LazyReach` memoises per-state reach sets on demand.

The Section-3 weak-barb predicates close a single term under the
default semantics instead: ``p |Down a`` (:func:`has_weak_barb`,
:func:`weak_barbs`) after ``-tau->`` steps, the step-weak barb
(:func:`weak_step_barbs`) after ``-phi->`` steps.  Each is a bounded
walk of :func:`~repro.lts.graph.grow` over α-canonical states and, as a
raw explorer, raises :class:`~repro.engine.budget.BudgetExceeded` when
its budget trips.
"""

from __future__ import annotations

from typing import (
    Callable,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    Sequence,
    TypeVar,
)

from ..core.names import Name
from ..core.reduction import barbs, has_barb, step_successors, tau_successors
from ..core.substitution import canonical_alpha
from ..core.syntax import Process
from ..engine.budget import Budget, Meter, resolve_meter
from .graph import LTS, grow

T = TypeVar("T", bound=Hashable)


class LazyReach(Generic[T]):
    """Demand-driven memoised reflexive-transitive closure.

    ``reach(s)`` returns every state reachable from *s* (including *s*)
    over the given successor function.  Results are cached per start
    state, and the walk absorbs already-cached reach sets wholesale, so a
    query never re-traverses a region another query has finished.

    When a :class:`~repro.engine.budget.Meter` is given, each state
    charges the pool **once per instance** the first time any query
    visits it — the demand-driven analogue of "one charge per interned
    state".  Instances must therefore be scoped to a single checker run
    (one meter): a cross-run cache would make budget verdicts depend on
    history.
    """

    __slots__ = ("_successors", "_meter", "_memo", "_charged")

    def __init__(self, successors: Callable[[T], Iterable[T]],
                 meter: Meter | None = None):
        self._successors = successors
        self._meter = meter
        self._memo: dict[T, tuple[T, ...]] = {}
        self._charged: set[T] = set()

    def _charge(self, state: T) -> None:
        if self._meter is not None and state not in self._charged:
            self._charged.add(state)
            self._meter.charge()

    def reach(self, start: T) -> tuple[T, ...]:
        """All states reachable from *start* (reflexive-transitive), in
        discovery order — *start* first.

        The order depends only on the successor function's order, never
        on hashing, so a search that walks the result (and the meter
        charges it makes) is the same in every process.
        """
        cached = self._memo.get(start)
        if cached is not None:
            return cached
        self._charge(start)
        seen: dict[T, None] = {start: None}
        stack: list[T] = [start]
        while stack:
            s = stack.pop()
            for t in self._successors(s):
                if t in seen:
                    continue
                done = self._memo.get(t)
                if done is not None:
                    # Absorb the finished region without re-walking it.
                    for u in done:
                        if u not in seen:
                            self._charge(u)
                            seen[u] = None
                    continue
                self._charge(t)
                seen[t] = None
                stack.append(t)
        result = tuple(seen)
        self._memo[start] = result
        return result


def reachability_closure(successors: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """Reflexive-transitive closure of a whole successor relation.

    The eager form the global checkers need: every state's reach set at
    once, computed by one shared :class:`LazyReach` so later starts reuse
    the regions earlier starts finished.  Starts are taken in reverse
    index order — BFS exploration appends successors after their
    predecessors, so high indices tend to be deep states whose closures
    the shallow states then absorb.
    """
    lazy: LazyReach[int] = LazyReach(lambda s: successors[s])
    n = len(successors)
    closed: list[frozenset[int]] = [frozenset()] * n
    for start in range(n - 1, -1, -1):
        closed[start] = frozenset(lazy.reach(start))
    return closed


def weak_keys(closure: Sequence[frozenset[int]],
              strong_keys: Sequence[frozenset]) -> list[frozenset]:
    """Weak observability keys: union of strong keys over the closure.

    E.g. weak barbs ``p |Down a  iff  exists p' in closure(p). p' |down a``.
    """
    return [frozenset().union(*(strong_keys[t] for t in closure[s]))
            for s in range(len(closure))]


#: Default budget for the weak-barb closures.
DEFAULT_CLOSURE_BUDGET = Budget(max_states=10_000)


def _closure(p: Process,
             successors: Callable[[Process], Iterable[Process]],
             budget: Budget | Meter | None) -> Iterator[Process]:
    """The α-canonical states reachable from *p* over *successors*, in
    breadth-first order, *p* first; one charge per state."""
    meter = resolve_meter(budget, DEFAULT_CLOSURE_BUDGET)
    lts = LTS()

    def expand(state: Process) -> list[tuple[None, Process]]:
        return [(None, t) for t in successors(state)]

    return (lts.states[sid] for sid in grow(lts, (p,), expand, meter,
                                            canonical=canonical_alpha))


def weak_barbs(p: Process, *,
               budget: Budget | Meter | None = None) -> frozenset[Name]:
    """The weak barbs of *p*: ``{a | p ==> p' and p' |down a}``.

    ``==>`` is the reflexive-transitive closure of ``-tau->``.
    """
    return frozenset().union(*map(barbs, _closure(p, tau_successors, budget)))


def has_weak_barb(p: Process, chan: Name, *,
                  budget: Budget | Meter | None = None) -> bool:
    """``p |Down chan``; stops at the first state that barbs."""
    return any(has_barb(q, chan)
               for q in _closure(p, tau_successors, budget))


def weak_step_barbs(p: Process, *, budget: Budget | Meter | None = None
                    ) -> frozenset[Name]:
    """``{a | p (-phi->)* p' and p' |down a}`` — step-weak barbs.

    Step-bisimulation (Definition 5) uses this observability predicate: a
    channel counts as observable if the process can broadcast on it after
    some autonomous steps (including other broadcasts, not only taus).
    """
    return frozenset().union(*map(barbs, _closure(p, step_successors, budget)))


def reachable_by_steps(p: Process, *, budget: Budget | Meter | None = None
                       ) -> Iterator[Process]:
    """All processes reachable from *p* by ``-phi->`` steps (bounded BFS)."""
    return _closure(p, step_successors, budget)
