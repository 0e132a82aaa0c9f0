"""Channel-capability flow analysis over bpi terms.

A 0-CFA-style abstract interpretation computing, per channel, sound
**may-broadcast / may-listen / may-extrude / may-carry** capability
sets (:mod:`repro.flow.analysis`), a static pre-solver turning those
sets into definite reachability refutations for the verdict layer
(:mod:`repro.flow.presolve`), and the BP4xx semantic lint family built
on top (:mod:`repro.flow.lints` — registered by importing
``repro.lint``).

The soundness direction is one-way by design: the abstraction
over-approximates behaviour, so "cannot happen in the abstraction"
transfers to the concrete semantics but "can happen" never does.  Rule
F of ``tools/check_contracts.py`` keeps call sites honest about it.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis": ("ENV", "FLOW_VERSION", "ChannelCaps", "FlowAnalysis",
                  "NuToken", "clear_caches", "flow_analysis", "memo_stats"),
    ".presolve": ("FlowEvidence", "NoBarb", "flow_proves_invariant",
                  "flow_refutes_barb"),
})
