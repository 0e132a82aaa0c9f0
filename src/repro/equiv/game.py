"""Generic greatest-fixpoint solver for bisimulation games.

Labelled bisimilarity (Definitions 7/8) cannot use plain partition
refinement: labels carry names, bound outputs must pick extruded names
fresh *for the pair being compared*, and the input-or-discard clause
quantifies over received vectors relative to the pair's free names.  So
the checkers build an AND-OR *pair graph*:

* a node is a (canonicalized) pair of processes — a candidate member of
  the symmetric relation S the definitions ask for;
* each node carries *challenges* — one per move of either component that
  a clause of the definition requires to be answered (clause 1: taus;
  clause 2: bound/free outputs; clause 3: input-or-discard moves);
* a challenge lists its *candidate* successor nodes — the pairs (p', q')
  the answering move is allowed to reach.

A node "survives" iff every challenge has at least one surviving
candidate.  That condition is exactly "S is a bisimulation" read
pointwise, so the largest surviving set — the greatest fixpoint, computed
here by iterated removal with reverse-dependency propagation, the
standard AND-OR game algorithm — is the largest bisimulation restricted
to reachable pairs, and the root survives iff the processes are
bisimilar.  Coinduction up-to techniques (Definition 9 / Lemma 7 of the
paper) appear implicitly: pair keys are canonicalized before entering the
graph, which is precisely "bisimulation up to structural congruence", so
the solver explores the small up-to relation while certifying membership
in the full one.

Exploration is breadth-first and budget-governed — each explored pair
charges one unit against the :class:`~repro.engine.budget.Budget`'s
unified pool (the analogue of the LTS explorers' states); the removal
phase is linear in the number of (node, challenge, candidate) triples
and polls only deadline/cancellation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable

from ..engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)
from ..obs import metrics as _metrics, progress as _progress, tracing as _tracing
from ..obs.state import STATE as _OBS

#: A challenge is a list of candidate successor pair-keys.
Challenge = list[Hashable]

#: Given a pair key, produce its challenges.
ChallengeFn = Callable[[Hashable], Iterable[Challenge]]

DEFAULT_MAX_PAIRS = 50_000

#: Default budget for pair-graph exploration; pairs draw from the same
#: unified pool as LTS states under an ambient :func:`repro.engine.govern`.
DEFAULT_BUDGET = Budget(max_states=DEFAULT_MAX_PAIRS)


def solve_game(root: Hashable, challenges_of: ChallengeFn, *,
               budget: Budget | Meter | None = None) -> bool:
    """Return True iff *root* is in the greatest fixpoint of the game.

    Raw-explorer contract: a budget trip (one unit charged per explored
    pair; deadline/cancellation polled during both phases) raises
    :class:`~repro.engine.budget.BudgetExceeded` with the pairs explored
    so far on ``exc.partial``.
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    with _tracing.span("game.solve") as sp:
        # Phase 1: explore the pair graph.
        challenge_table: dict[Hashable, list[Challenge]] = {}
        queue: deque[Hashable] = deque([root])
        try:
            while queue:
                key = queue.popleft()
                if key in challenge_table:
                    continue
                meter.charge()
                chals = [list(dict.fromkeys(c)) for c in challenges_of(key)]
                challenge_table[key] = chals
                if _OBS.enabled:
                    _metrics.inc("game.pairs_explored")
                    _progress.report("game.explore",
                                     pairs=len(challenge_table),
                                     frontier=len(queue))
                for c in chals:
                    for nxt in c:
                        if nxt not in challenge_table:
                            queue.append(nxt)
        except BudgetExceeded as exc:
            if exc.partial is None:
                exc.partial = challenge_table
            sp.set(budget_tripped=exc.reason)
            raise

        # Phase 2: greatest fixpoint by iterated removal.
        polling = meter.watching
        alive: set[Hashable] = set(challenge_table)
        # reverse dependencies: candidate -> list of (node, challenge index)
        rdeps: dict[Hashable, list[tuple[Hashable, int]]] = {}
        remaining: dict[tuple[Hashable, int], int] = {}
        dead: deque[Hashable] = deque()
        for node, chals in challenge_table.items():
            failed = False
            for ci, cands in enumerate(chals):
                live_cands = [c for c in cands if c in alive]
                remaining[(node, ci)] = len(live_cands)
                if not live_cands:
                    failed = True
                for cand in live_cands:
                    rdeps.setdefault(cand, []).append((node, ci))
            if failed:
                dead.append(node)
        while dead:
            if polling:
                meter.tick()
            node = dead.popleft()
            if node not in alive:
                continue
            alive.discard(node)
            if _OBS.enabled:
                _metrics.inc("game.pairs_removed")
            for dep_node, ci in rdeps.get(node, ()):
                if dep_node not in alive:
                    continue
                remaining[(dep_node, ci)] -= 1
                if remaining[(dep_node, ci)] == 0:
                    dead.append(dep_node)
        verdict = root in alive
        sp.set(pairs=len(challenge_table), alive=len(alive), verdict=verdict)
    return verdict
