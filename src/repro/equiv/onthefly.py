"""On-the-fly product-space bisimulation with up-to closures.

The global checkers materialise a bounded state space *first* and decide
*afterwards* — the ``Budget`` trips on graph size even when two processes
are distinguished three steps in.  This module decides pair by pair over
the lazily unfolded **product graph** instead:

* a *pair* ``(p, q)`` is an AND-node: every challenge issued against it
  must be answerable;
* a *challenge* is an OR-node: some candidate answer pair must itself be
  in the bisimulation.

``explore_product`` runs a greatest-fixpoint worklist over this AND-OR
graph.  Each challenge keeps a single optimistic **witness** candidate;
when a witness dies the challenge falls back to its next pending
candidate, and a challenge with no candidates left kills its owner pair,
cascading through the registered waiters.  The search returns FALSE the
moment the root pair dies (a distinguishing strategy exists in the
explored prefix) and TRUE when the worklist drains (the alive pairs are
then a post-fixpoint of the challenge operator, i.e. a bisimulation
up-to the installed closures).  Either way the shared
:class:`~repro.engine.budget.Meter` is charged once per *pair expanded*,
not per state materialised.

Up-to techniques plug in through the :class:`Closure` protocol: every
candidate pair is normalised through the closure pipeline before it
enters the relation, so equi-bisimilar candidates merge and trivially
related ones (``(p, p)`` after rewriting) discharge their challenge at
build time.  A closure is **refutation-safe** when it maps each pair to
an equi-bisimilar pair — then both TRUE and FALSE survive.  Closures
that only satisfy the weaker up-to soundness condition (``S`` progresses
to ``f(S)`` implies ``S`` is contained in bisimilarity — e.g.
up-to-parallel-context, Lemma 8/9) keep TRUE sound but can fabricate
FALSE; ``explore_product`` re-runs any FALSE that such a closure touched
with the safe pipeline only, on the same meter.

See ``docs/equivalence_checking.md`` for the algorithm and the soundness
arguments in full.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, runtime_checkable

from ..calculi import registry as _registry
from ..calculi.backend import CalculusBackend
from ..core.canonical import _stable_fingerprint, canonical_state
from ..core.freenames import free_occurrence_order
from ..core.substitution import apply_image
from ..core.syntax import NIL, Par, Process
from ..engine.budget import Budget, BudgetExceeded, Meter, resolve_meter
from ..lts.weak import LazyReach
from ..obs import metrics as _metrics, progress as _progress, tracing as _tracing
from ..obs.state import STATE as _OBS
from .game import DEFAULT_MAX_PAIRS
from .reduction_graph import phi_successors

PairKey = tuple[Process, Process]

#: ``challenges_of(pair)`` returns the AND-list of OR-lists of candidate
#: answer pairs; an empty OR-list is an unanswerable challenge.
ChallengeFn = Callable[[PairKey], Iterable[list[PairKey]]]

#: Default budget: same pair pool as the global game solver.
DEFAULT_BUDGET = Budget(max_states=DEFAULT_MAX_PAIRS)

#: Reserved prefix for the joint canonical renaming of free names.
RENAME_PREFIX = "_c"

STRATEGIES = ("onthefly", "global")


def validate_strategy(strategy: str) -> str:
    """Reject anything but the two supported checker strategies."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    return strategy


# -- up-to closures ----------------------------------------------------------

@runtime_checkable
class Closure(Protocol):
    """One up-to technique in the candidate-normalisation pipeline.

    ``apply`` maps a candidate pair to a smaller/earlier representative,
    or returns ``None`` to *discharge* it: the pair is known bisimilar
    outright, so it satisfies its challenge permanently.  When
    ``refutation_safe`` is False the closure is sound for TRUE only and
    any FALSE it contributed to is re-checked without it.
    """

    name: str
    refutation_safe: bool

    def apply(self, pair: PairKey) -> PairKey | None: ...


class RewriteClosure:
    """Up-to-bisimilarity rewriting: both sides to canonical state form.

    ``canonical_state`` implements the Lemma-6 structural laws (monoid
    laws for ``|``, scope extrusion/garbage collection for ``nu``, alpha)
    — every rewrite is an equi-bisimilar term, so the closure is safe in
    both directions for all three relations.
    """

    name = "rewrite"
    refutation_safe = True

    def apply(self, pair: PairKey) -> PairKey | None:
        p, q = pair
        cp, cq = canonical_state(p), canonical_state(q)
        if cp is cq:
            return None
        return (cp, cq)


class SymmetryClosure:
    """Up-to-symmetry: orient each pair deterministically.

    Bisimilarity is symmetric (and the challenge generators used here are
    symmetric in the pair), so ``(p, q)`` and ``(q, p)`` stand or fall
    together — orienting by the sides' fingerprints merges them (after
    the rewrite closure both sides are canonical states).
    """

    name = "symmetry"
    refutation_safe = True

    def apply(self, pair: PairKey) -> PairKey | None:
        p, q = pair
        if _stable_fingerprint(q) < _stable_fingerprint(p):
            return (q, p)
        return pair


#: The first renamed names ``_c0, _c1, ...``; a pair with more free
#: names spells the rest on demand.
_RENAMED = tuple(f"{RENAME_PREFIX}{i}" for i in range(32))


def _renamed_name(i: int) -> str:
    return _RENAMED[i] if i < len(_RENAMED) else f"{RENAME_PREFIX}{i}"


def _renamed(k: int) -> tuple[str, ...]:
    """``_c0 .. _c(k-1)``."""
    if k <= len(_RENAMED):
        return _RENAMED[:k]
    return tuple(_renamed_name(i) for i in range(k))


class RenamingClosure:
    """Up-to-injective-renaming: map the pair's free names to ``_c<i>``.

    All the relations here are equivariant: for injective ``s``,
    ``p ~ q  iff  s(p) ~ s(q)`` (closure under injective substitutions,
    cf. the congruence machinery in :mod:`repro.equiv.congruence`; the
    converse direction applies the inverse renaming).  Jointly renaming
    free names to ``_c<i>`` in first-occurrence order therefore merges
    whole orbits of alpha-on-free-names variants — e.g. the residuals of
    the input challenges over fresh ``_f<i>`` vectors.

    The renaming goes by image: each side's free-occurrence order is
    sent to its ``_c<i>`` names through :func:`apply_image`, which reads
    the node's substitution memo without building a name map.
    """

    name = "renaming"
    refutation_safe = True

    def apply(self, pair: PairKey) -> PairKey | None:
        p, q = pair
        fo_p = free_occurrence_order(p)
        fo_q = free_occurrence_order(q)
        # p's names come first in the joint order, so its image is the
        # first len(fo_p) renamed names; q's extends it with its own.
        image_p = _renamed(len(fo_p))
        if fo_q == fo_p:
            image_q = image_p
        else:
            to = dict(zip(fo_p, image_p))
            for n in fo_q:
                if n not in to:
                    to[n] = _renamed_name(len(to))
            image_q = tuple([to[n] for n in fo_q])
        if image_p == fo_p and image_q == fo_q:
            return pair
        return (canonical_state(apply_image(p, image_p)),
                canonical_state(apply_image(q, image_q)))


class ReflexivityClosure:
    """Up-to-reflexivity: discharge ``(p, p)`` — last in the pipeline so
    it sees the fully normalised pair (hash-consing makes the check an
    identity comparison)."""

    name = "reflexivity"
    refutation_safe = True

    def apply(self, pair: PairKey) -> PairKey | None:
        p, q = pair
        if p is q or p == q:
            return None
        return pair


def _par_components(p: Process) -> list[Process]:
    out: list[Process] = []
    stack = [p]
    while stack:
        t = stack.pop()
        if isinstance(t, Par):
            stack.append(t.right)
            stack.append(t.left)
        else:
            out.append(t)
    return out


def _rebuild_par(components: list[Process]) -> Process:
    if not components:
        return NIL
    out = components[-1]
    for c in reversed(components[:-1]):
        out = Par(c, out)
    return out


class ParallelContextClosure:
    """Up-to-parallel-context: strip common top-level ``|`` components.

    Sound for TRUE by the congruence property of ``|`` (Lemmas 8/9 via
    :mod:`repro.equiv.congruence`): if ``p ~ q`` then ``p | r ~ q | r``,
    so a relation that progresses to its context-stripped image is
    contained in bisimilarity.  The converse fails in general — ``r`` may
    mask the difference (a listener both sides discard, say) — so this
    closure is **not** refutation-safe and is opt-in.
    """

    name = "par-context"
    refutation_safe = False

    def apply(self, pair: PairKey) -> PairKey | None:
        p, q = pair
        pc, qc = _par_components(p), _par_components(q)
        if len(pc) < 2 and len(qc) < 2:
            return pair
        common = Counter(pc) & Counter(qc)
        if not common:
            return pair
        strip = Counter(common)
        keep_p = []
        for c in pc:
            if strip[c] > 0:
                strip[c] -= 1
            else:
                keep_p.append(c)
        strip = Counter(common)
        keep_q = []
        for c in qc:
            if strip[c] > 0:
                strip[c] -= 1
            else:
                keep_q.append(c)
        return (canonical_state(_rebuild_par(keep_p)),
                canonical_state(_rebuild_par(keep_q)))


#: The safe default pipeline, applied in order.  Rewriting first puts the
#: pair in canonical form, symmetry orients it, renaming maps its free
#: names into the ``_c<i>`` space, reflexivity discharges the diagonal.
DEFAULT_CLOSURES: tuple[Closure, ...] = (
    RewriteClosure(),
    SymmetryClosure(),
    RenamingClosure(),
    ReflexivityClosure(),
)


# -- partial evidence --------------------------------------------------------

@dataclass(frozen=True)
class PartialProduct:
    """Typed evidence attached to a budget trip of the product search.

    ``relation`` is the candidate bisimulation at the moment of the trip
    (the expanded, still-alive pairs); ``frontier`` counts the queued
    pairs not yet expanded; ``max_depth`` is the deepest product depth
    reached by any visited candidate.
    """

    pairs_expanded: int
    frontier: int
    max_depth: int
    relation: tuple[PairKey, ...]

    def summary(self) -> str:
        return (f"after {self.pairs_expanded} pairs (deepest "
                f"distinguishing candidate at depth {self.max_depth}, "
                f"{self.frontier} queued)")


# -- the worklist core -------------------------------------------------------

class _Challenge:
    """An OR-node: owner pair, pending candidates, current witness (all
    pair ids of one search)."""

    __slots__ = ("owner", "pending", "witness")

    def __init__(self, owner: int, pending: list[int]):
        self.owner = owner
        self.pending = pending
        self.witness: int | None = None


def _explore(root: PairKey, challenges_of: ChallengeFn,
             closures: tuple[Closure, ...],
             meter: Meter) -> tuple[bool, bool]:
    """One worklist run.  Returns ``(verdict, unsafe_closure_fired)``."""
    try:
        # Entry poll: an already-expired deadline or cancelled token must
        # surface before any verdict, however small the search.
        meter.check()
    except BudgetExceeded as exc:
        if exc.partial is None:
            exc.partial = PartialProduct(0, 0, 0, ())
        raise
    hits: dict[str, int] = {c.name: 0 for c in closures}
    unsafe_names = frozenset(c.name for c in closures
                             if not c.refutation_safe)
    # Every closed pair gets an id, its index in these lists, so the
    # search's own bookkeeping hashes small ints, not pairs of terms.
    ids: dict[PairKey, int] = {}
    pairs: list[PairKey] = []
    # status: None until expanded, then True alive or False dead.
    status: list[bool | None] = []
    # depth: -1 until first enqueued, so it doubles as the "already
    # enqueued" marker.
    depth: list[int] = []
    # candidate -> (its closed pair's id, -1 if discharged; the closures
    # that fired): the same candidate recurs across many challenges, so
    # the pipeline runs once per distinct candidate and a repeat replays
    # its hits.
    closed_memo: dict[PairKey, tuple[int, tuple[str, ...]]] = {}

    def close(cand: PairKey) -> int:
        got = closed_memo.get(cand)
        if got is None:
            fired: list[str] = []
            pair: PairKey | None = cand
            for c in closures:
                nxt = c.apply(pair)
                if nxt is None or nxt != pair:
                    fired.append(c.name)
                pair = nxt
                if pair is None:
                    break
            if pair is None:
                pid = -1
            else:
                pid = ids.get(pair, -1)
                if pid < 0:
                    pid = ids[pair] = len(pairs)
                    pairs.append(pair)
                    status.append(None)
                    depth.append(-1)
            got = closed_memo[cand] = (pid, tuple(fired))
        for name in got[1]:
            hits[name] += 1
        return got[0]

    waiters: dict[int, list[_Challenge]] = {}
    queue: deque[int] = deque()
    # Expanded ids in expansion order, for the evidence of a trip.
    order: list[int] = []
    expanded = 0
    killed = 0

    def select_witness(chal: _Challenge) -> bool:
        """Install the next viable witness; False when exhausted."""
        kept: list[int] = []
        alive_at: int | None = None
        for cand in chal.pending:
            st = status[cand]
            if st is False:
                continue  # dead candidates drop out for good
            if st and alive_at is None:
                alive_at = len(kept)
            kept.append(cand)
        if not kept:
            chal.pending = []
            chal.witness = None
            return False
        if alive_at is not None:
            # Prefer an already-expanded alive candidate: no new work.
            w = kept.pop(alive_at)
        else:
            w = kept.pop(0)
            if depth[w] < 0:
                depth[w] = depth[chal.owner] + 1
                queue.append(w)
        chal.pending = kept
        chal.witness = w
        got = waiters.get(w)
        if got is None:
            waiters[w] = [chal]
        else:
            got.append(chal)
        return True

    def kill(node: int) -> None:
        """Cascade a death through every challenge witnessing *node*."""
        nonlocal killed
        stack = [node]
        while stack:
            n = stack.pop()
            for chal in waiters.pop(n, ()):
                owner = chal.owner
                if status[owner] is False:
                    continue
                if chal.witness != n:
                    continue  # stale registration (witness moved on)
                chal.witness = None
                if select_witness(chal):
                    continue
                status[owner] = False
                killed += 1
                stack.append(owner)

    with _tracing.span("product.explore") as sp:
        root_id = close(root)
        if root_id < 0:
            # The root pair discharged outright (e.g. p == q up to the
            # Lemma-6 laws): TRUE without expanding anything.
            sp.set(verdict=True, pairs=0, closure_hits=sum(hits.values()))
            return True, False
        depth[root_id] = 0
        queue.append(root_id)
        verdict: bool | None = None
        try:
            while queue:
                n = queue.popleft()
                if status[n] is not None:
                    continue  # expanded via an earlier queue entry
                meter.charge()
                expanded += 1
                order.append(n)
                node_chals: list[_Challenge] = []
                dead = False
                for cand_list in challenges_of(pairs[n]):
                    pending: list[int] = []
                    pend_seen: set[int] = set()
                    discharged = False
                    for cand in cand_list:
                        closed = close(cand)
                        if closed < 0:
                            discharged = True
                            break
                        if closed not in pend_seen:
                            pend_seen.add(closed)
                            pending.append(closed)
                    if discharged:
                        continue  # challenge satisfied permanently
                    if not pending:
                        dead = True  # unanswerable challenge
                        break
                    node_chals.append(_Challenge(n, pending))
                if not dead:
                    status[n] = True
                    for chal in node_chals:
                        if not select_witness(chal):
                            dead = True
                            break
                if dead:
                    status[n] = False
                    killed += 1
                    kill(n)
                    if status[root_id] is False:
                        verdict = False
                        break
                if _OBS.enabled:
                    _metrics.inc("product.pairs_expanded")
                    _progress.report("product.explore", pairs=expanded,
                                     frontier=len(queue))
            if verdict is None:
                # Worklist drained with the root alive: the alive pairs
                # are a post-fixpoint, i.e. a bisimulation up-to closures.
                verdict = status[root_id] is not False
        except BudgetExceeded as exc:
            if exc.partial is None:
                exc.partial = PartialProduct(
                    pairs_expanded=expanded,
                    frontier=len(queue),
                    max_depth=max(depth),
                    relation=tuple(pairs[i] for i in order if status[i]),
                )
            sp.set(verdict="unknown", pairs=expanded,
                   budget_tripped=exc.reason)
            raise
        total_hits = sum(hits.values())
        if _OBS.enabled:
            _metrics.inc("product.closure_hits", total_hits)
            _metrics.inc("product.pairs_killed", killed)
        sp.set(verdict=verdict, pairs=expanded, killed=killed,
               closure_hits=total_hits, depth=max(depth))
    unsafe_fired = any(hits[name] for name in unsafe_names)
    return verdict, unsafe_fired


def explore_product(root: PairKey, challenges_of: ChallengeFn, *,
                    closures: tuple[Closure, ...] = DEFAULT_CLOSURES,
                    budget: Budget | Meter | None = None) -> bool:
    """Decide the AND-OR product game rooted at *root* on the fly.

    Raw-explorer contract: a budget trip raises
    :class:`~repro.engine.budget.BudgetExceeded` with a
    :class:`PartialProduct` attached to ``exc.partial``.  A FALSE that a
    non-refutation-safe closure touched is re-verified with the safe
    closures only, charging the same meter.
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    verdict, unsafe_fired = _explore(root, challenges_of, tuple(closures),
                                     meter)
    if not verdict and unsafe_fired:
        safe = tuple(c for c in closures if c.refutation_safe)
        verdict, _ = _explore(root, challenges_of, safe, meter)
    return verdict


# -- challenge generators for the reduction-based relations ------------------

def product_root(p: Process, q: Process) -> PairKey:
    """The canonical root pair for *p* against *q*."""
    return (canonical_state(p), canonical_state(q))


def reduction_challenges(*, steps: bool, weak: bool, meter: Meter,
                         backend: CalculusBackend | None = None
                         ) -> ChallengeFn:
    """Challenges for barbed (``steps=False``) / step (``steps=True``)
    bisimilarity, strong or weak.

    A barb-key mismatch is encoded as one unanswerable challenge.  In the
    weak case the answer to a single ``-phi->`` move is the whole
    reach-closure of the other side (the reflexive answer included) and
    keys are weak barbs — strong bisimilarity over the saturated graph,
    exactly what the global checker computes.  Reach sets come from one
    :class:`~repro.lts.weak.LazyReach` per run so saturation is paid
    per *visited* state, charged to the shared *meter*.  *backend*
    selects the broadcast semantics the reductions come from (default:
    the paper's ``"bpi"``).
    """
    backend = _registry.resolve(backend)
    barbs = backend.barbs

    def succ(s: Process) -> tuple[Process, ...]:
        return phi_successors(s, steps=steps, backend=backend)

    reach: LazyReach[Process] | None = (
        LazyReach(succ, meter) if weak else None)
    keys: dict[Process, frozenset[str]] = {}

    def key_of(state: Process) -> frozenset[str]:
        got = keys.get(state)
        if got is None:
            if reach is not None:
                got = frozenset().union(
                    *(barbs(s) for s in reach.reach(state)))
            else:
                got = barbs(state)
            keys[state] = got
        return got

    def challenges(pair: PairKey) -> list[list[PairKey]]:
        p, q = pair
        if key_of(p) != key_of(q):
            return [[]]
        chals: list[list[PairKey]] = []
        ps, qs = succ(p), succ(q)
        if reach is not None:
            p_reach, q_reach = reach.reach(p), reach.reach(q)
            for p1 in ps:
                chals.append([(p1, q1) for q1 in q_reach])
            for q1 in qs:
                chals.append([(p1, q1) for p1 in p_reach])
        else:
            for p1 in ps:
                k = barbs(p1)
                chals.append([(p1, q1) for q1 in qs if barbs(q1) == k])
            for q1 in qs:
                k = barbs(q1)
                chals.append([(p1, q1) for p1 in ps if barbs(p1) == k])
        return chals

    return challenges
