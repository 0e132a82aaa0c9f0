"""Graph-topology broadcast: channels as cells (cf. arXiv:1701.02526).

The wireless calculi in PAPERS.md attach a connectivity graph to the
network: a broadcast reaches only the nodes adjacent to the sender.  We
transplant the idea onto the bpi-calculus by reading channels as *cells*:
a listener tuned to cell ``b`` hears a broadcast made on cell ``a`` iff
``a == b`` (same cell, plain bpi) or ``a - b`` is an edge of the
:class:`Topology`.  With an empty topology the backend degenerates to the
paper's semantics; adding edges widens reach, so a process physically
between two cells can be modelled by a listener on either.

Delivery is still atomic *within reach*: every listener that can hear
must receive (rule (13)); a listener whose cell is not reachable discards
the broadcast (rule (14)) — that is the wireless discard relation, and
the input/discard dichotomy holds for it verbatim.

The backend is Table 3 itself with the topology plugged into its hooks:
:meth:`WirelessBackend.hears` is :meth:`Topology.hears`, ``In(p)`` widens
to the neighbours of the cells *p* is tuned to, and fresh binders avoid
the cells.

Topology mutation (handover, node movement) is modelled at the meta
level: :meth:`Topology.connect` / :meth:`Topology.disconnect` — and the
corresponding :meth:`WirelessBackend.connect` / ``disconnect`` — return a
*new* backend, so a mobility scenario is a sequence of analyses under
evolving graphs (see ``apps/radio.py``).

Alpha-hygiene: the topology names global cells, so a term must not bind
(restrict or abstract) a name that is also a topology cell — the bound
name would be a *different, private* channel that merely shares the
spelling.  :meth:`WirelessBackend.check_sorts` rejects such terms, and
freshly generated binder names always avoid the cell names.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..core.names import Name
from ..core.syntax import Input, Process, Restrict
from .backend import StructuralBackend


@dataclass(frozen=True)
class Topology:
    """An undirected connectivity graph over cell (channel) names."""

    edges: frozenset[tuple[Name, Name]]  # each pair stored sorted

    @classmethod
    def of(cls, *pairs: tuple[Name, Name]) -> "Topology":
        edges = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"self-loop {a!r}-{b!r}: a cell always hears itself")
            edges.add((min(a, b), max(a, b)))
        return cls(frozenset(edges))

    @classmethod
    def parse(cls, text: str) -> "Topology":
        """Parse ``"a-b,b-c"`` (empty string: the empty topology)."""
        pairs = []
        for part in filter(None, (s.strip() for s in text.split(","))):
            a, sep, b = part.partition("-")
            if not sep or not a.strip() or not b.strip():
                raise ValueError(
                    f"malformed topology edge {part!r} (expected 'cell-cell')")
            pairs.append((a.strip(), b.strip()))
        return cls.of(*pairs)

    @property
    def cells(self) -> frozenset[Name]:
        return frozenset(n for e in self.edges for n in e)

    def adjacent(self, a: Name, b: Name) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def hears(self, out_chan: Name, listen_chan: Name) -> bool:
        """Does a listener on *listen_chan* hear a broadcast on *out_chan*?"""
        return out_chan == listen_chan or self.adjacent(out_chan, listen_chan)

    def neighbours(self, a: Name) -> frozenset[Name]:
        return frozenset(y if x == a else x
                         for x, y in self.edges if a in (x, y))

    def connect(self, a: Name, b: Name) -> "Topology":
        if a == b:
            raise ValueError(f"self-loop {a!r}-{b!r}: a cell always hears itself")
        return Topology(self.edges | {(min(a, b), max(a, b))})

    def disconnect(self, a: Name, b: Name) -> "Topology":
        return Topology(self.edges - {(min(a, b), max(a, b))})

    def spec(self) -> str:
        return ",".join(f"{a}-{b}" for a, b in sorted(self.edges))

    def digest(self) -> str:
        """Short stable digest for store keys and ledgers."""
        return hashlib.sha256(self.spec().encode("utf-8")).hexdigest()[:12]


class WirelessBackend(StructuralBackend):
    """The paper's calculus with topology-restricted broadcast reach."""

    name = "wireless"

    def __init__(self, topology: Topology | None = None) -> None:
        super().__init__()
        self.topology = topology if topology is not None else Topology(frozenset())
        self.avoid = self.topology.cells

    @property
    def spec(self) -> str:
        edges = self.topology.spec()
        return f"wireless:{edges}" if edges else "wireless"

    def key(self) -> str:
        if not self.topology.edges:
            return "wireless"
        return f"wireless:{self.topology.digest()}"

    def connect(self, a: Name, b: Name) -> "WirelessBackend":
        return WirelessBackend(self.topology.connect(a, b))

    def disconnect(self, a: Name, b: Name) -> "WirelessBackend":
        return WirelessBackend(self.topology.disconnect(a, b))

    def hears(self, chan: Name, listener: Name) -> bool:
        return self.topology.hears(chan, listener)

    # ---------------------------------------------------------- discard
    def listening_channels(self, p: Process) -> frozenset[Name]:
        # p hears a broadcast on cell `a` iff one of its (externally
        # addressable) listening cells is `a` or adjacent to it; p
        # discards every other cell.
        tuned = super().listening_channels(p)
        return tuned.union(*map(self.topology.neighbours, tuned))

    def input_capabilities(self, p: Process) -> frozenset[tuple[Name, int]]:
        # A listener tuned to cell b at arity k can be reached by a
        # broadcast on b itself or on any adjacent cell.
        caps = set()
        for b, k in super().input_capabilities(p):
            caps.add((b, k))
            for a in self.topology.neighbours(b):
                caps.add((a, k))
        return frozenset(caps)

    # ------------------------------------------------------------ sorts
    def check_sorts(self, p: Process) -> dict[Name, int]:
        cells = self.topology.cells
        if cells:
            self._reject_bound_cells(p, cells)
        sorts = super().check_sorts(p)
        # Adjacent cells exchange the same broadcasts, so they must agree
        # on arity wherever both are used.
        for a, b in sorted(self.topology.edges):
            if a in sorts and b in sorts and sorts[a] != sorts[b]:
                raise ValueError(
                    f"cells {a!r} and {b!r} are adjacent but used at "
                    f"arities {sorts[a]} and {sorts[b]}")
        return sorts

    @staticmethod
    def _reject_bound_cells(p: Process, cells: frozenset[Name]) -> None:
        def walk(q: Process) -> None:
            if isinstance(q, Restrict) and q.name in cells:
                raise ValueError(
                    f"topology cell {q.name!r} is restricted in the term; "
                    f"a private channel cannot share a cell name — rename the binder")
            if isinstance(q, Input):
                clash = cells.intersection(q.params)
                if clash:
                    raise ValueError(
                        f"topology cell(s) {sorted(clash)!r} bound as input "
                        f"parameters; rename the parameters")
            for c in q.children():
                walk(c)

        walk(p)
