"""LTS minimization and DOT export.

Quotients an explicit LTS by strong bisimilarity (labels + barbs) via the
shared partition machinery, producing the canonical minimal automaton —
handy for inspecting the behaviour of paper examples and for the ablation
benchmarks (state counts before/after the structural quotients).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.actions import TauAction
from .graph import LTS
from .partition import coarsest_partition_labelled


@dataclass
class MinimalLTS:
    """The quotient automaton: blocks, labelled block edges, block barbs."""

    n_blocks: int
    initial: int
    edges: set[tuple[int, str, int]] = field(default_factory=set)
    barbs: list[frozenset[str]] = field(default_factory=list)
    block_of: list[int] = field(default_factory=list)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def minimize(lts: LTS, initial: int | None) -> MinimalLTS:
    """Quotient *lts* by strong (labelled) bisimilarity.

    Labels are compared by their string rendering (bound outputs should be
    pre-canonicalized by the graph builder).  The initial partition is by
    barb set; refinement splits by labelled successor-block signatures.
    """
    n = lts.n_states
    labels = sorted({str(a) for edges in lts.edges for a, _ in edges})
    # per-label successor sets
    per_label: list[list[frozenset[int]]] = []
    for lab in labels:
        per_label.append([
            frozenset(dst for a, dst in lts.edges[s] if str(a) == lab)
            for s in range(n)])

    keys = [lts.barbs_of(s) for s in range(n)]
    # joint fixpoint across all labels via the shared worklist refinement
    block = coarsest_partition_labelled(per_label, keys)

    result = MinimalLTS(n_blocks=max(block) + 1 if n else 0,
                        initial=block[initial] if n else 0,
                        block_of=block)
    result.barbs = [frozenset()] * result.n_blocks
    for s in range(n):
        result.barbs[block[s]] = keys[s]
        for action, dst in lts.edges[s]:
            result.edges.add((block[s], str(action), block[dst]))
    return result


def to_dot(lts: LTS, initial: int | None, *, max_label: int = 24) -> str:
    """Render an explicit LTS as Graphviz DOT (states labelled by barbs;
    *initial* is None for the empty graph of a trip on the root)."""
    head = "  node [shape=circle];"
    if initial is not None:
        head += f" {initial} [shape=doublecircle];"
    lines = ["digraph lts {", "  rankdir=LR;", head]
    for s in range(lts.n_states):
        bb = ",".join(sorted(lts.barbs_of(s)))
        label = f"{s}" + (f"\\n{{{bb}}}" if bb else "")
        lines.append(f'  {s} [label="{label}"];')
    for s in range(lts.n_states):
        for action, dst in lts.edges[s]:
            lab = "τ" if isinstance(action, TauAction) else str(action)
            if len(lab) > max_label:
                lab = lab[: max_label - 1] + "…"
            lines.append(f'  {s} -> {dst} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines)


def minimal_to_dot(m: MinimalLTS, *, max_label: int = 24) -> str:
    """Render a minimized LTS as Graphviz DOT."""
    head = "  node [shape=circle];"
    if m.n_blocks:
        head += f" {m.initial} [shape=doublecircle];"
    lines = ["digraph min_lts {", "  rankdir=LR;", head]
    for b in range(m.n_blocks):
        bb = ",".join(sorted(m.barbs[b]))
        label = f"B{b}" + (f"\\n{{{bb}}}" if bb else "")
        lines.append(f'  {b} [label="{label}"];')
    for src, lab, dst in sorted(m.edges):
        if len(lab) > max_label:
            lab = lab[: max_label - 1] + "…"
        lines.append(f'  {src} -> {dst} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines)
