"""The static pre-solver: definite answers from the flow abstraction.

This module is deliberately *below* the verdict layer (Rule F in
``tools/check_contracts.py`` enforces it): it returns either a typed
:class:`FlowEvidence` witness or ``None``, never a verdict.  The wiring
in ``runtime.analysis.can_reach_barb`` and ``runtime.analysis.
invariant_holds`` converts evidence into the one sound polarity each —
FALSE-reachable and TRUE-invariant respectively.  Because the flow
analysis over-approximates behaviour, "the abstraction cannot broadcast
on ``a``" soundly implies "no reachable state barbs on ``a``"; the
converse direction is *not* sound and is never offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.names import Name
from ..core.reduction import has_barb
from ..core.syntax import Process
from .analysis import FLOW_VERSION, flow_analysis

__all__ = ["FlowEvidence", "NoBarb", "flow_refutes_barb",
           "flow_proves_invariant"]


@dataclass(frozen=True)
class FlowEvidence:
    """Why the pre-solver's definite answer is justified.

    Attached as ``verdict.evidence`` so callers can audit the skipped
    exploration: *kind* is ``"barb-unreachable"`` or
    ``"invariant-no-barb"``, *may_broadcast* is the abstraction's full
    may-broadcast set (the refuted channel is provably outside it), and
    *states_explored* is always 0 — the whole point.
    """

    kind: str
    channel: Name
    calculus: str
    digest: str
    may_broadcast: tuple[str, ...]
    version: int = FLOW_VERSION
    states_explored: int = field(default=0)

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "channel": self.channel,
            "calculus": self.calculus,
            "flow_digest": self.digest,
            "may_broadcast": list(self.may_broadcast),
            "version": self.version,
            "states_explored": self.states_explored,
        }


class NoBarb:
    """State predicate "never offers a barb on *chan*".

    The one invariant shape the pre-solver recognises: passing
    ``NoBarb("a")`` to :func:`repro.runtime.analysis.invariant_holds`
    lets the flow abstraction prove the invariant without exploring.
    Plain callables keep working — they just always explore.
    """

    __slots__ = ("chan",)

    def __init__(self, chan: Name) -> None:
        self.chan = chan

    def __call__(self, state: Process) -> bool:
        return not has_barb(state, self.chan)

    def __repr__(self) -> str:
        return f"NoBarb({self.chan!r})"


def flow_refutes_barb(p: Process, chan: Name, *,
                      calculus: Any = None) -> FlowEvidence | None:
    """Evidence that no state reachable from *p* barbs on *chan*, or None.

    Sound for the closed-system reachability that ``can_reach_barb``
    explores: the analysis runs in ``closed`` mode, declines on
    incomplete terms (free identifiers), and only ever refutes — a
    ``None`` here means "explore", never "reachable".
    """
    analysis = flow_analysis(p, calculus=calculus, mode="closed")
    if not analysis.refutes_barb(chan):
        return None
    return FlowEvidence(
        kind="barb-unreachable",
        channel=chan,
        calculus=analysis.calculus,
        digest=analysis.digest(),
        may_broadcast=tuple(sorted(analysis.may_broadcast_names())),
    )


def flow_proves_invariant(p: Process, predicate: Any, *,
                          calculus: Any = None) -> FlowEvidence | None:
    """Evidence that *predicate* holds in every reachable state, or None.

    Recognises exactly the :class:`NoBarb` shape; anything else returns
    ``None`` (explore).  A proof is the same fact as a barb refutation,
    re-labelled for the invariant's TRUE polarity.
    """
    if not isinstance(predicate, NoBarb):
        return None
    evidence = flow_refutes_barb(p, predicate.chan, calculus=calculus)
    if evidence is None:
        return None
    return FlowEvidence(
        kind="invariant-no-barb",
        channel=evidence.channel,
        calculus=evidence.calculus,
        digest=evidence.digest,
        may_broadcast=evidence.may_broadcast,
    )
