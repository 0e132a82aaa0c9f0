"""Example 1 — a distributed algorithm for cycle detection.

Straight from the paper (Section 2.2)::

    Detector(i, o) = i(x).i(y).( Detector<i,o> || Edge_manager<o,x,y> )

    Edge_manager(o, a, b) =
        nu u ( (rec Y(b,u). b<u>.Y<b,u>)<b,u>
             || (rec X(o,a,b,u).
                   a(w).( [w=u] o!.nil ,
                          (b<w>.nil || X<o,a,b,u>) ))<o,a,b,u> )

Vertices are channels.  The detector learns edges (pairs of vertex
channels) over ``i`` and spawns one manager per edge.  A manager for edge
``(a, b)`` broadcasts a *private* token ``u`` on ``b`` forever (the
name-generation mechanism), and forwards every token heard on ``a`` to
``b`` — unless it is its own token coming home, in which case a cycle has
been found and a signal goes out on ``o``.

Broadcast is essential: managers of edges sharing a vertex never know each
other — each simply listens on its source vertex and every token broadcast
there reaches all of them at once.

The module offers two ways to answer "is there a cycle?":

* :func:`detects_cycle` — exhaustive bounded search for a reachable ``o``
  barb (soundness: a barb is reachable iff the graph has a cycle, checked
  against :func:`has_cycle_reference` in the tests);
* :func:`simulate` — a seeded run of the full system, returning its trace.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.builder import call, define, inp, match_eq, nu, out, par
from ..core.names import Name
from ..core.syntax import Process, Rec
from ..engine.budget import Budget, resolve_meter
from ..runtime.analysis import can_reach_barb
from ..runtime.simulator import run
from ..runtime.trace import Trace

Edge = tuple[Name, Name]

#: Default channel names for the detector interface.
EDGE_CHANNEL = "i"
SIGNAL_CHANNEL = "o"

#: Default budget for :func:`detects_cycle`.
DEFAULT_BUDGET = Budget(max_states=30_000)


def edge_manager(o: Name, a: Name, b: Name) -> Process:
    """The paper's ``Edge_manager(o, a, b)`` term."""
    broadcaster = define(
        "Y", ("b", "u"),
        lambda bb, uu: out(bb, uu, cont=call("Y", bb, uu)))
    forwarder = define(
        "X", ("o", "a", "b", "u"),
        lambda oo, aa, bb, uu: inp(aa, ("w",), match_eq(
            "w", uu,
            out(oo),
            par(out(bb, "w"), call("X", oo, aa, bb, uu)))))
    return nu("u", par(broadcaster(b, "u"), forwarder(o, a, b, "u")))


def detector(i: Name = EDGE_CHANNEL, o: Name = SIGNAL_CHANNEL) -> Rec:
    """The paper's ``Detector(i, o)`` term."""
    body = define(
        "D", ("i", "o"),
        lambda ii, oo: inp(ii, ("x",), inp(ii, ("y",), par(
            call("D", ii, oo), edge_manager(oo, "x", "y")))))
    return body(i, o)


def feeder(i: Name, edges: Sequence[Edge]) -> Process:
    """An environment broadcasting the edge list to the detector, one
    vertex at a time on channel *i* (the detector reads pairs)."""
    proc: Process = out("feeder_done")
    for a, b in reversed(edges):
        proc = out(i, a, cont=out(i, b, cont=proc))
    return proc


def validate_vertices(edges: Iterable[Edge], i: Name, o: Name) -> None:
    """Vertex channels must not clash with the detector interface."""
    for a, b in edges:
        for v in (a, b):
            if v in (i, o, "feeder_done"):
                raise ValueError(
                    f"vertex {v!r} clashes with a reserved channel")


def build_system(edges: Sequence[Edge], i: Name = EDGE_CHANNEL,
                 o: Name = SIGNAL_CHANNEL) -> Process:
    """Detector composed with a feeder for *edges*."""
    edges = list(edges)
    validate_vertices(edges, i, o)
    return par(detector(i, o), feeder(i, edges))


def prefed_system(edges: Sequence[Edge], o: Name = SIGNAL_CHANNEL) -> Process:
    """The system *after* the feeding phase: one manager per edge.

    Skipping the feeder keeps state spaces small for verification — the
    feeding phase is itself exercised by :func:`build_system` tests.
    """
    edges = list(edges)
    validate_vertices(edges, EDGE_CHANNEL, o)
    managers = [edge_manager(o, a, b) for a, b in edges]
    return par(detector(EDGE_CHANNEL, o), *managers)


def detects_cycle(edges: Sequence[Edge], *, budget=None,
                  prefed: bool = True) -> bool:
    """Can the detector system reach a cycle signal?  (Bounded search.)

    The system of an *acyclic* graph has an infinite state space (token
    broadcasters run forever, accumulating pending re-emissions), so this
    is deliberately a bool-valued *semi-decision*: ``True`` is definite
    (a signal state was reached); ``False`` conflates "no signal within
    the budget" with genuine absence — use
    :func:`repro.runtime.analysis.can_reach_barb` directly for the
    three-valued verdict.  Cycles are found after very few states in
    practice — the tests cross-check against the graph-theoretic
    reference on every digraph up to isomorphism-covering families.
    """
    system = prefed_system(edges) if prefed else build_system(edges)
    return can_reach_barb(system, SIGNAL_CHANNEL,
                          budget=resolve_meter(budget, DEFAULT_BUDGET),
                          collapse_duplicates=True).is_true


def simulate(edges: Sequence[Edge], *, seed: int = 0,
             max_steps: int = 4_000, prefed: bool = False) -> Trace:
    """A seeded run of the full system, stopping at the first signal."""
    system = prefed_system(edges) if prefed else build_system(edges)
    return run(system, seed=seed, max_steps=max_steps,
               stop_on_barb=SIGNAL_CHANNEL)


def has_cycle_reference(edges: Sequence[Edge]) -> bool:
    """Reference answer from a classical graph algorithm (baseline)."""
    import networkx as nx
    g = nx.DiGraph()
    g.add_edges_from(edges)
    return not nx.is_directed_acyclic_graph(g)
