"""Relational coarsest partition via worklist signature refinement.

Used by the barbed- and step-bisimilarity checkers, whose clauses match
*unlabelled* reductions plus an observability predicate: states start
partitioned by their observability key and blocks are split until every
state in a block reaches exactly the same set of blocks.

For the weak variants the caller passes saturated successor sets (the
reflexive-transitive closure of the reduction), which turns weak
bisimilarity into strong bisimilarity on the saturated system.

The refinement is Paige–Tarjan-flavoured rather than a naive global
fixpoint: signatures are stored per state, a predecessor map tracks who can
see a block change, and after a split only the *predecessors of moved
states* get their signatures recomputed — so the cost per round is
proportional to the actual splits, not to re-signaturing the whole system.
:func:`coarsest_partition_labelled` runs the same engine with per-label
signatures for the LTS minimizer.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from ..engine.budget import Budget, Meter, resolve_meter
from ..obs import metrics as _metrics, progress as _progress, tracing as _tracing
from ..obs.state import STATE as _OBS


def _initial_blocks(initial_keys: Sequence[Hashable]) -> tuple[list[int], int]:
    key_ids: dict[Hashable, int] = {}
    block = [key_ids.setdefault(k, len(key_ids)) for k in initial_keys]
    return block, len(key_ids)


def _predecessors(successors: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in successors[i]:
            preds[j].append(i)
    return preds


def _refine(block: list[int],
            n_blocks: int,
            preds: Sequence[Sequence[int]],
            signature: Callable[[int], Hashable],
            meter: Meter | None = None) -> list[int]:
    """Refine *block* (modified in place) to stability under *signature*.

    ``signature(s)`` must read the current ``block`` assignment.  Signatures
    are cached per state and recomputed only for states with a successor
    that changed block — the worklist.  Returns the stable assignment.

    With *meter* set, the worklist polls the meter's deadline/cancellation
    between signature recomputations (refinement interns nothing, so the
    state cap does not apply here) and raises
    :class:`~repro.engine.budget.BudgetExceeded` mid-fixpoint.
    """
    n = len(block)
    if meter is not None:
        meter.check()
    sig: list[Hashable] = [signature(s) for s in range(n)]
    members: list[set[int]] = [set() for _ in range(n_blocks)]
    for i, b in enumerate(block):
        members[b].add(i)
    # Blocks whose members' signatures may disagree; initially all of them.
    affected = {b for b in range(n_blocks) if len(members[b]) > 1}
    dirty: set[int] = set()  # states whose cached signature may be stale
    while affected or dirty:
        if _OBS.enabled:
            _metrics.inc("partition.rounds")
            _metrics.inc("partition.resignatured", len(dirty))
            _progress.report("partition.refine", blocks=len(members),
                             affected=len(affected), dirty=len(dirty))
        for s in dirty:
            if meter is not None:
                meter.tick()
            new_sig = signature(s)
            if new_sig != sig[s]:
                sig[s] = new_sig
                affected.add(block[s])
        dirty = set()
        moved: list[int] = []
        for b in sorted(affected):
            if meter is not None:
                meter.tick()
            group = members[b]
            if len(group) <= 1:
                continue
            cells: dict[Hashable, list[int]] = {}
            for s in sorted(group):
                cells.setdefault(sig[s], []).append(s)
            if len(cells) == 1:
                continue
            # The largest cell keeps the old id: fewer moved states means
            # fewer predecessors to re-signature.
            for cell in sorted(cells.values(), key=len)[:-1]:
                nb = len(members)
                members.append(set(cell))
                for s in cell:
                    block[s] = nb
                group.difference_update(cell)
                moved.extend(cell)
                if _OBS.enabled:
                    _metrics.inc("partition.splits")
        affected = set()
        for s in moved:
            dirty.update(preds[s])
    return block


def _refine_meter(budget: Budget | Meter | None) -> Meter | None:
    """The meter `_refine` should poll, or None when nothing is watched.

    Refinement interns no states, so only deadline/cancellation (or an
    already-tripped shared meter) are relevant; ungoverned runs pay zero
    metering overhead.
    """
    meter = resolve_meter(budget)
    return meter if meter.watching else None


def coarsest_partition(successors: Sequence[frozenset[int]],
                       initial_keys: Sequence[Hashable], *,
                       budget: Budget | Meter | None = None) -> list[int]:
    """Compute the coarsest partition refining *initial_keys* and stable
    under the successor relation.

    ``successors[i]`` is the set of states reachable from state *i* in one
    (possibly saturated) reduction.  Returns a block id per state; two
    states are bisimilar iff they get the same block id.  A tripped
    *budget* raises :class:`~repro.engine.budget.BudgetExceeded`
    mid-fixpoint (raw-explorer contract).
    """
    n = len(successors)
    if len(initial_keys) != n:
        raise ValueError("initial_keys and successors must align")
    with _tracing.span("partition.coarsest", n_states=n) as sp:
        block, n_blocks = _initial_blocks(initial_keys)

        def signature(s: int) -> Hashable:
            return frozenset(block[t] for t in successors[s])

        result = _refine(block, n_blocks, _predecessors(successors, n),
                         signature, meter=_refine_meter(budget))
        sp.set(n_blocks=len(set(result)))
    return result


def coarsest_partition_labelled(
        per_label: Sequence[Sequence[frozenset[int]]],
        initial_keys: Sequence[Hashable], *,
        budget: Budget | Meter | None = None) -> list[int]:
    """Coarsest partition stable under a *labelled* successor relation.

    ``per_label[l][i]`` is the set of states reachable from state *i* by an
    edge with label *l*; stability requires matching successor blocks label
    by label (strong labelled bisimilarity on the explicit graph).  A
    tripped *budget* raises :class:`~repro.engine.budget.BudgetExceeded`
    mid-fixpoint (raw-explorer contract).
    """
    n = len(initial_keys)
    for succ in per_label:
        if len(succ) != n:
            raise ValueError("initial_keys and successors must align")
    with _tracing.span("partition.coarsest_labelled", n_states=n,
                       n_labels=len(per_label)) as sp:
        block, n_blocks = _initial_blocks(initial_keys)
        combined = [sorted({t for succ in per_label for t in succ[i]})
                    for i in range(n)]

        def signature(s: int) -> Hashable:
            return tuple(frozenset(block[t] for t in succ[s])
                         for succ in per_label)

        result = _refine(block, n_blocks, _predecessors(combined, n),
                         signature, meter=_refine_meter(budget))
        sp.set(n_blocks=len(set(result)))
    return result
