"""Example 2 — detecting inconsistencies in partitioned replicated databases.

The paper extends the cycle detector to a fully distributed consistency
check (inspired by Bayerdorffer's associative broadcast work [1]): while a
replicated database is partitioned, transactions keep executing; on
reconnection the system must decide whether the combined execution is
serialisable.  The criterion: build the *precedence graph* whose vertices
are transactions, with an edge <t,p> -> <t1,p1> iff

  1. t read item i later written by t1,  p = p1;
  2. t wrote item i later read/written by t1,  p = p1;
  3. t read item i that t1 wrote,  p != p1;

(+ two cross-partition *writes* of one item are immediately inconsistent —
"two contrary edges").  The database is consistent iff the graph is acyclic.

The process architecture follows the paper:

* ``Item`` — one manager per replica; reacts to transaction broadcasts on
  the item's channel when the partition matches, forking a transaction
  manager per transaction;
* ``Tr_Man_w`` / ``Tr_Man_r`` — watch subsequent same-partition traffic on
  the item and schedule a precedence edge (kinds 1/2) to be materialised
  on reconnection;
* ``STr_Man_w`` / ``STr_Man_r`` — after the ``unif`` reconnection
  broadcast, gossip their transaction on the item's second channel and
  convert cross-partition conflicts into kind-3 edges or an immediate
  ``error`` (write/write);
* edges are ``Edge_manager`` processes from Example 1 with ``o = error`` —
  transaction identifiers are *channels* (name mobility!), so a cycle in
  the precedence graph literally broadcasts ``error``.

Adaptations from the paper's listing (documented per DESIGN.md): the
``req``-reply and value ``Val`` plumbing is dropped — it serves the client
API, not the detection logic — so a transaction broadcast carries
``(t, type, p)`` on the item channel.  Types are the names ``r``/``w``.

:func:`is_consistent_reference` implements the criterion directly on the
log (the spec); :func:`detects_inconsistency` asks the process system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from ..core.builder import call, define, inp, match_eq, out, par
from ..core.names import Name
from ..core.reduction import can_reach_barb
from ..core.syntax import NIL, Process
from ..engine.budget import Budget, resolve_meter
from ..runtime.simulator import run
from ..runtime.trace import Trace
from .cycle_detection import edge_manager

ERROR_CHANNEL = "error"
UNIF_CHANNEL = "unif"
READ, WRITE = "r", "w"

#: Default budget for :func:`detects_inconsistency`.
DEFAULT_BUDGET = Budget(max_states=120_000)


@dataclass(frozen=True)
class Transaction:
    """One logged operation: transaction *tid* of kind r/w on *item* in
    partition *part*.  All fields are channel names."""

    tid: Name
    kind: str  # READ or WRITE
    item: Name
    part: Name

    def __post_init__(self):
        if self.kind not in (READ, WRITE):
            raise ValueError(f"kind must be 'r' or 'w', got {self.kind!r}")


# ---------------------------------------------------------------------------
# Process definitions
# ---------------------------------------------------------------------------

def _tr_man(kind: str) -> "define":
    """``Tr_Man_w`` / ``Tr_Man_r``: pre-reconnection watcher for one
    transaction *t* on one item replica.

    Kind-2 (we wrote): any later same-partition transaction on the item
    yields an edge t -> t1.  Kind-1 (we read): only a later same-partition
    *write* does.  Edges are deferred until the ``unif`` broadcast, as in
    the paper.  On ``unif`` the manager becomes its ``STr`` variant.
    """
    me = f"TrMan_{kind}"

    def body(i1, i2, p, unif, t):
        if kind == WRITE:
            edge = inp(unif, ("pn",),
                       edge_manager(ERROR_CHANNEL, t, "t1"))
        else:
            edge = match_eq("type", WRITE,
                            inp(unif, ("pn",),
                                edge_manager(ERROR_CHANNEL, t, "t1")),
                            NIL)
        watch = inp(i1, ("t1", "type", "p1"), match_eq(
            "p1", p,
            par(call(me, i1, i2, p, unif, t), edge),
            call(me, i1, i2, p, unif, t)))
        switch = inp(unif, ("p1",), call(f"STrMan_{kind}", i2, p, t))
        return watch + switch

    return define(me, ("i1", "i2", "p", "unif", "t"), _closed_body(body, me, kind),
                  constants=(ERROR_CHANNEL, READ, WRITE))


def _closed_body(body, me: str, kind: str):
    """Close over the STr definition so the Tr body has no foreign idents:
    inline STr as an applied rec term."""
    stn = _str_man(kind)

    def make(i1, i2, p, unif, t):
        proc = body(i1, i2, p, unif, t)
        return _inline_ident(proc, f"STrMan_{kind}", stn)

    return make


def _str_man(kind: str):
    """``STr_Man_w`` / ``STr_Man_r``: post-reconnection gossip phase.

    The paper's managers re-gossip forever (robust under arbitrary
    reconnection timing).  Because ``unif`` is a *broadcast*, every manager
    switches to the gossip phase simultaneously, so a single gossip per
    manager already reaches all of them — we gossip once and then keep
    listening, which keeps the collapsed state space finite (documented
    adaptation, see DESIGN.md).
    """
    me = f"STrMan_{kind}"
    listener = f"STrListen_{kind}"

    def reaction(cont_name, i2, p, t):
        if kind == WRITE:
            # other partition: a write conflicts outright, a read becomes a
            # kind-3 edge t1 -> t
            return match_eq(
                "type", WRITE,
                out(ERROR_CHANNEL),
                par(call(cont_name, i2, p, t),
                    edge_manager(ERROR_CHANNEL, "t1", t)))
        # we read; a cross-partition write yields the edge t -> t1
        return match_eq(
            "type", WRITE,
            par(call(cont_name, i2, p, t),
                edge_manager(ERROR_CHANNEL, t, "t1")),
            call(cont_name, i2, p, t))

    def listen(cont_name, i2, p, t):
        return inp(i2, ("t1", "type", "p1"), match_eq(
            "p1", p,
            call(cont_name, i2, p, t),
            reaction(cont_name, i2, p, t)))

    listen_only = define(
        listener, ("i2", "p", "t"),
        lambda i2, p, t: listen(listener, i2, p, t),
        constants=(ERROR_CHANNEL, READ, WRITE))

    def body(i2, p, t):
        gossip = out(i2, t, kind, p, cont=listen_only(i2, p, t))
        return listen(me, i2, p, t) + gossip

    return define(me, ("i2", "p", "t"), body,
                  constants=(ERROR_CHANNEL, READ, WRITE))


def _inline_ident(proc: Process, ident: str, instantiate) -> Process:
    """Replace free occurrences ``ident<args>`` by the applied rec term."""
    from ..core.syntax import (
        Ident, Input, Match, Output, Par, Rec, Restrict, Sum, Tau)
    p = proc
    if isinstance(p, Ident) and p.ident == ident:
        return instantiate(*p.args)
    if isinstance(p, Tau):
        return Tau(_inline_ident(p.cont, ident, instantiate))
    if isinstance(p, Input):
        return Input(p.chan, p.params, _inline_ident(p.cont, ident, instantiate))
    if isinstance(p, Output):
        return Output(p.chan, p.args, _inline_ident(p.cont, ident, instantiate))
    if isinstance(p, Restrict):
        return Restrict(p.name, _inline_ident(p.body, ident, instantiate))
    if isinstance(p, Match):
        return Match(p.left, p.right,
                     _inline_ident(p.then, ident, instantiate),
                     _inline_ident(p.orelse, ident, instantiate))
    if isinstance(p, Sum):
        return Sum(_inline_ident(p.left, ident, instantiate),
                   _inline_ident(p.right, ident, instantiate))
    if isinstance(p, Par):
        return Par(_inline_ident(p.left, ident, instantiate),
                   _inline_ident(p.right, ident, instantiate))
    if isinstance(p, Rec):
        if p.ident == ident:
            return p
        return Rec(p.ident, p.params,
                   _inline_ident(p.body, ident, instantiate), p.args)
    return p


TR_MAN_W = _tr_man(WRITE)
TR_MAN_R = _tr_man(READ)


def item_manager(item_chan: Name, gossip_chan: Name, part: Name,
                 unif: Name = UNIF_CHANNEL):
    """``Item(i1, i2, p, unif)``: one replica of a data item.

    Reacts to matching-partition transactions by forking the right
    transaction manager; follows partition reassignment on ``unif``.
    """
    def body(i1, i2, p, unif_):
        fork_w = par(call("Item", i1, i2, p, unif_),
                     _inline_tr(WRITE, i1, i2, p, unif_))
        fork_r = par(call("Item", i1, i2, p, unif_),
                     _inline_tr(READ, i1, i2, p, unif_))
        serve = inp(i1, ("t1", "type", "p1"), match_eq(
            "p1", p,
            match_eq("type", WRITE, fork_w, fork_r),
            call("Item", i1, i2, p, unif_)))
        move = inp(unif_, ("p1",), call("Item", i1, i2, "p1", unif_))
        return serve + move

    definition = define("Item", ("i1", "i2", "p", "unif"), body,
                        constants=(ERROR_CHANNEL, READ, WRITE))
    return definition(item_chan, gossip_chan, part, unif)


def _inline_tr(kind: str, i1, i2, p, unif) -> Process:
    tr = TR_MAN_W if kind == WRITE else TR_MAN_R
    return tr(i1, i2, p, unif, "t1")


# ---------------------------------------------------------------------------
# Scenario assembly
# ---------------------------------------------------------------------------

def gossip_channel(item: Name) -> Name:
    return f"{item}_g"


def build_database(items: Iterable[Name], partitions: Iterable[Name],
                   replicas: dict[Name, Sequence[Name]] | None = None,
                   ) -> Process:
    """One ``Item`` replica per (item, partition) — or per the explicit
    *replicas* map (item -> partitions hosting a copy)."""
    parts = list(partitions)
    procs = []
    for item in items:
        hosting = (replicas or {}).get(item, parts)
        for part in hosting:
            procs.append(item_manager(item, gossip_channel(item), part))
    return par(*procs)


def transaction_feeder(log: Sequence[Transaction],
                       new_partition: Name = "pnew") -> Process:
    """Broadcast the transaction log in temporal order, then announce the
    reconnection on ``unif`` (repeatedly, so late managers also hear it)."""
    # `unif` is broadcast exactly once: all managers switch atomically,
    # so re-announcing (as robustness against late joiners would need) is
    # unnecessary and would make exhaustive search diverge.
    proc: Process = out(UNIF_CHANNEL, new_partition)
    for txn in reversed(log):
        proc = out(txn.item, txn.tid, txn.kind, txn.part, cont=proc)
    return proc


def build_system(log: Sequence[Transaction]) -> Process:
    """Database + feeder for the scenario described by *log*."""
    items = sorted({t.item for t in log})
    partitions = sorted({t.part for t in log})
    return par(build_database(items, partitions), transaction_feeder(log))


def detects_inconsistency(log: Sequence[Transaction], *, budget=None):
    """Can the process system reach an ``error`` broadcast?

    Returns the three-valued :class:`~repro.engine.Verdict` of the
    underlying reachability query.
    """
    return can_reach_barb(build_system(log), ERROR_CHANNEL,
                          budget=resolve_meter(budget, DEFAULT_BUDGET),
                          collapse_duplicates=True)


def simulate(log: Sequence[Transaction], *, seed: int = 0,
             max_steps: int = 5_000) -> Trace:
    return run(build_system(log), seed=seed, max_steps=max_steps,
               stop_on_barb=ERROR_CHANNEL)


# ---------------------------------------------------------------------------
# Reference implementation (the spec)
# ---------------------------------------------------------------------------

def precedence_edges(log: Sequence[Transaction]) -> set[tuple[Name, Name]]:
    """The edges of the precedence graph per the three rules."""
    edges: set[tuple[Name, Name]] = set()
    for i, t in enumerate(log):
        for t1 in log[i + 1:]:
            if t.item != t1.item or t.tid == t1.tid:
                continue
            same = t.part == t1.part
            if same and t.kind == READ and t1.kind == WRITE:
                edges.add((t.tid, t1.tid))          # rule 1
            if same and t.kind == WRITE:
                edges.add((t.tid, t1.tid))          # rule 2
        for t1 in log:
            if t.item != t1.item or t.tid == t1.tid or t.part == t1.part:
                continue
            if t.kind == READ and t1.kind == WRITE:
                edges.add((t.tid, t1.tid))          # rule 3
    return edges


def conflicting_writes(log: Sequence[Transaction]) -> bool:
    """Cross-partition write/write on one item ("two contrary edges")."""
    for t, t1 in combinations(log, 2):
        if (t.item == t1.item and t.part != t1.part
                and t.kind == WRITE and t1.kind == WRITE
                and t.tid != t1.tid):
            return True
    return False


def is_consistent_reference(log: Sequence[Transaction]) -> bool:
    """The serialisability criterion, straight from the definition."""
    import networkx as nx
    if conflicting_writes(log):
        return False
    g = nx.DiGraph()
    g.add_nodes_from(t.tid for t in log)
    g.add_edges_from(precedence_edges(log))
    return nx.is_directed_acyclic_graph(g)
