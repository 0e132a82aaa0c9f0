"""A seeded executor for closed broadcast systems.

The paper's examples (cycle detection in Example 1, the transaction
managers of Example 2, PVM groups in Example 3) describe *closed* systems
driven entirely by their own autonomous ``-phi->`` steps — the broadcasts
and taus derivable by the rules of Table 3 without environment input.
Section 3.2 argues this step relation is the real "reduction" of a
broadcast calculus: a sender never waits for its audience, so every
enabled output fires atomically, serving all current listeners at once
(rules 10-14) while non-listeners are passed by via the discard relation
of Table 2.

The simulator makes that abstract relation executable: it repeatedly
enumerates the enabled steps (:func:`repro.core.semantics.step_transitions`,
i.e. one candidate per derivable ``p -phi-> p'``), lets a *scheduling
policy* pick one, and records the chosen action in a
:class:`~repro.runtime.trace.Trace`.  It is the deterministic,
reproducible substitute for the distributed runtime the paper informally
assumes (see DESIGN.md, substitutions): where the paper quantifies over
all maximal step sequences, a seeded run samples one of them.

Policies:

* ``random`` (default) — uniformly random among enabled steps, from a
  seeded PRNG: reproducible pseudo-fair interleaving;
* ``round_robin`` — cycles deterministically through enabled step indices;
* a callable ``(step_index, transitions) -> index`` for custom control.

Closure is maintained as in Definition 2's treatment of restriction: names
extruded by a top-level bound output (rule 5's ``nu b~ a<c~>`` labels) are
re-restricted around the residual (``rebind_extrusions``), which is sound
because a closed system has no environment to remember them.

For *verification*-style questions ("can the detector ever signal o?") use
:func:`repro.runtime.analysis.can_reach_barb` — exhaustive bounded search —
rather than sampling runs.  With ``repro.obs`` enabled, each run is
wrapped in a ``sim.run`` span, counts ``sim.steps`` and reports progress
per step (see docs/observability.md).
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from ..calculi import registry as _registry
from ..calculi.backend import CalculusBackend
from ..core.actions import OutputAction
from ..core.canonical import canonical_state
from ..core.names import Name
from ..core.reduction import close_extrusion
from ..core.syntax import Process
from ..obs import metrics as _metrics, progress as _progress, tracing as _tracing
from ..obs.state import STATE as _OBS
from .trace import Trace, TraceEvent

Policy = Callable[[int, Sequence], int]


def random_policy(seed: int) -> Policy:
    rng = random.Random(seed)

    def pick(_step: int, transitions: Sequence) -> int:
        return rng.randrange(len(transitions))

    return pick


def round_robin_policy() -> Policy:
    def pick(step: int, transitions: Sequence) -> int:
        return step % len(transitions)

    return pick


def run(p: Process, *, seed: int = 0, max_steps: int = 1_000,
        policy: Policy | str = "random",
        stop_on_barb: Name | None = None,
        rebind_extrusions: bool = True,
        calculus: str | CalculusBackend | None = None) -> Trace:
    """Execute *p* for up to *max_steps* autonomous steps.

    ``rebind_extrusions`` keeps the system closed: names extruded by a
    top-level bound output are re-restricted around the residual (sound for
    a closed system — there is no environment to remember them — and it
    keeps states small).  Set ``stop_on_barb`` to end the run as soon as a
    broadcast on that channel happens (it is recorded first).

    ``calculus`` selects the broadcast semantics via
    :mod:`repro.calculi.registry` (default: the paper's ``"bpi"``).
    """
    backend = _registry.resolve(calculus)
    if policy == "random":
        policy_fn: Policy = random_policy(seed)
    elif policy == "round_robin":
        policy_fn = round_robin_policy()
    elif callable(policy):
        policy_fn = policy
    else:
        raise ValueError(f"unknown policy {policy!r}")

    with _tracing.span("sim.run",
                       policy=policy if isinstance(policy, str)
                       else "custom") as sp:
        trace = Trace()
        state = p
        for i in range(max_steps):
            moves = backend.step_transitions(state)
            if not moves:
                trace.quiescent = True
                break
            action, target = moves[policy_fn(i, moves)]
            if rebind_extrusions:
                target = close_extrusion(action, target)
            state = canonical_state(target)
            trace.events.append(TraceEvent(i, action, state.size()))
            if _OBS.enabled:
                _metrics.inc("sim.steps")
                _progress.report("sim.run", step=i, enabled=len(moves),
                                 state_size=trace.events[-1].state_size)
            if stop_on_barb is not None and \
                    isinstance(action, OutputAction) and \
                    action.chan == stop_on_barb:
                break
        trace.final = state
        sp.set(steps=trace.steps, quiescent=trace.quiescent)
    return trace


def run_until_quiescent(p: Process, *, seed: int = 0,
                        max_steps: int = 10_000,
                        calculus: str | CalculusBackend | None = None
                        ) -> Trace:
    """Run to quiescence (or the step budget); convenience wrapper."""
    return run(p, seed=seed, max_steps=max_steps, calculus=calculus)


def sample_runs(p: Process, *, seeds: Sequence[int],
                max_steps: int = 1_000,
                stop_on_barb: Name | None = None,
                calculus: str | CalculusBackend | None = None
                ) -> list[Trace]:
    """Independent seeded runs — crude statistical coverage of schedules."""
    return [run(p, seed=s, max_steps=max_steps, stop_on_barb=stop_on_barb,
                calculus=calculus)
            for s in seeds]
