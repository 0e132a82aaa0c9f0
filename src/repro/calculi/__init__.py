"""Baseline calculi (CBS, pi), inter-calculus encodings, and the
pluggable calculus-backend registry (:mod:`repro.calculi.registry`)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".backend": ("BpiBackend", "CalculusBackend", "StructuralBackend"),
    ".lossy": ("LossyBackend",),
    ".wireless": ("Topology", "WirelessBackend"),
    ".cbs": ("ETHER", "CbsNil", "CbsPar", "CbsProcess", "CbsRec", "CbsSum",
             "CbsVar", "Hear", "Speak", "alphabet", "hears", "speaks",
             "to_bpi", "discards as cbs_discards"),
    ".data": ("and_gate", "bool_at", "cell_at", "false_at", "if_then_else",
              "not_gate", "pair_at", "read_cell", "true_at", "unpair",
              "write_cell"),
    ".encodings": ("pi_to_bpi",),
    ".pi": ("pi_barbed_bisimilar", "pi_barbs", "pi_input_continuations",
            "pi_step_transitions", "pi_tau_successors"),
})
