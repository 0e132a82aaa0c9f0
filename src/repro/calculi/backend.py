"""The calculus-backend protocol: pluggable broadcast semantics.

The paper fixes one semantics — the Table 3 transition rules, the Table 2
discard relation, and output barbs.  ROADMAP item 3 asks for the direct
extensions named in PAPERS.md (Cao's noisy channels, graph-based wireless
broadcast), which share the syntax and the shape of the judgements but not
the judgements themselves.  :class:`CalculusBackend` names that shape:

* :meth:`step_transitions` — autonomous moves ``p -phi-> p'`` (outputs and
  ``tau``), finitely branching;
* :meth:`input_continuations` — residuals of delivering one concrete
  broadcast ``chan(values)`` to *p*;
* :meth:`discards` — the backend's discard relation ``p -a/->``;
* :meth:`barbs` — the observables of *p*;
* :meth:`check_sorts` — the backend's well-sortedness rules.

Every backend must preserve the **input/discard dichotomy**: for all *p*
and *a*, exactly one of "``input_continuations(p, a, v)`` is non-empty for
well-sorted *v*" and "``discards(p, a)``" holds.  The property suite
checks this per registered backend.

Every backend is an instance of :class:`~repro.core.semantics.Table3`, the
one implementation of the rules: :class:`BpiBackend` is that class as
written, and the extensions subclass :class:`StructuralBackend`, which
gives each instance its own memo tables, and override the hooks where
their semantics deviates.  Engine layers (``lts/``, ``equiv/``,
``runtime/``, the facade and CLI) resolve a backend through
:mod:`repro.calculi.registry` and call these methods; they never import
``core.semantics`` / ``core.discard`` directly (contract Rule E).
"""

from __future__ import annotations

import abc
from typing import Iterable

from ..core.actions import OutputAction
from ..core.freenames import free_names
from ..core.names import Name
from ..core.reduction import barbs as _bpi_barbs
from ..core.semantics import Table3, Transition
from ..core.semantics import check_sorts as _bpi_check_sorts
from ..core.syntax import Process


class CalculusBackend(abc.ABC):
    """One broadcast semantics: steps, delivery, discard, barbs, sorts.

    Instances are immutable apart from memo tables; the registry caches
    one instance per canonical spec so per-instance memo tables persist
    for the lifetime of a session.
    """

    #: Registry name of the backend family ("bpi", "lossy", "wireless").
    name: str = "backend"

    def __init__(self) -> None:
        self._scratch: dict[str, dict] = {}

    def memo(self, table: str) -> dict:
        """A named per-backend memo table (cleared by :meth:`clear_caches`).

        Engine layers that memoize per-state results (e.g. the reduction
        graph's ``phi_successors``) key them here for non-default
        backends, instead of on slots of the interned nodes — slot caches
        are reserved for the ``bpi`` functions they were written for.
        """
        return self._scratch.setdefault(table, {})

    @property
    def spec(self) -> str:
        """Round-trippable registry spec (``resolve(b.spec)`` ≡ *b*).

        Parameterised backends override this to include their parameters;
        the spec string is what travels to worker processes.
        """
        return self.name

    def key(self) -> str:
        """Stable identity for store keys and ledgers.

        Distinct semantics must have distinct keys — the verdict store
        mixes this into ``pair_key`` so verdicts computed under different
        backends can never answer each other.  Parameterised backends
        append a digest of their parameters.
        """
        return self.name

    # ---------------------------------------------------------------- core
    @abc.abstractmethod
    def step_transitions(self, p: Process) -> tuple[Transition, ...]:
        """All autonomous moves ``p -phi-> p'`` (outputs and tau)."""

    @abc.abstractmethod
    def input_continuations(self, p: Process, chan: Name,
                            values: tuple[Name, ...]) -> tuple[Process, ...]:
        """All residuals of delivering ``chan(values)`` to *p*."""

    @abc.abstractmethod
    def discards(self, p: Process, a: Name) -> bool:
        """True iff *p* ignores every broadcast made on *a*."""

    # ------------------------------------------------------------- derived
    @abc.abstractmethod
    def input_capabilities(self, p: Process) -> frozenset[tuple[Name, int]]:
        """The (channel, arity) pairs at which *p* can currently receive."""

    @abc.abstractmethod
    def listening_channels(self, p: Process) -> frozenset[Name]:
        """``In(p)``: channels whose broadcasts *p* does not discard."""

    @abc.abstractmethod
    def transitions(self, p: Process, universe) -> list[Transition]:
        """Steps plus inputs instantiated over a finite name universe."""

    def barbs(self, p: Process) -> frozenset[Name]:
        """The observables of *p* (output subjects, in every backend)."""
        return frozenset(
            action.chan for action, _t in self.step_transitions(p)
            if isinstance(action, OutputAction))

    def check_sorts(self, p: Process) -> dict[Name, int]:
        """Backend sort rules; raises ``ValueError`` on a violation."""
        return _bpi_check_sorts(p)

    def clear_caches(self) -> None:
        """Drop per-instance memo tables (hook for ``core.cache``)."""
        self._scratch.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec!r}>"


class BpiBackend(Table3, CalculusBackend):
    """The paper's semantics, verbatim.

    :class:`~repro.core.semantics.Table3` as written, memoized on the node
    slots the module-level ``core.semantics`` functions share, so routing
    through the registry is observationally identical to calling those
    functions.
    """

    name = "bpi"
    barbs = staticmethod(_bpi_barbs)


class StructuralBackend(Table3, CalculusBackend):
    """Table 3 with per-instance memo tables, for semantics that deviate.

    The node-slot memos of :class:`~repro.core.semantics.Table3` are shared
    by every instance, so they can hold only one semantics — the paper's.
    Subclasses override Table 3's hooks (who hears a broadcast, how a
    parallel composition takes one, which names fresh binders avoid) and
    memoize steps and deliveries here, keyed on the interned nodes.
    """

    def step_transitions(self, p: Process) -> tuple[Transition, ...]:
        memo = self.memo("steps")
        try:
            return memo[p]
        except KeyError:
            pass
        result = self._compute_steps(p)
        memo[p] = result
        return result

    def _deliver(self, p: Process, chan: Name,
                 values: tuple[Name, ...]) -> tuple[Process, ...]:
        memo = self.memo("inputs")
        key = (p, chan, values)
        try:
            return memo[key]
        except KeyError:
            pass
        result = self._compute_inputs(p, chan, values)
        memo[key] = result
        return result


def dichotomy_channels(p: Process,
                       extra: Iterable[Name] = ()) -> frozenset[Name]:
    """Channels worth probing when property-testing the dichotomy."""
    return frozenset(free_names(p)) | frozenset(extra)
