"""Baseline calculi (CBS, pi), inter-calculus encodings, and the
pluggable calculus-backend registry (:mod:`repro.calculi.registry`)."""

from .backend import BpiBackend, CalculusBackend, StructuralBackend
from .cbs import (
    ETHER,
    CbsNil,
    CbsPar,
    CbsProcess,
    CbsRec,
    CbsSum,
    CbsVar,
    Hear,
    Speak,
    alphabet,
    hears,
    speaks,
    to_bpi,
)
from .cbs import discards as cbs_discards
from .data import (
    and_gate,
    bool_at,
    cell_at,
    false_at,
    if_then_else,
    not_gate,
    pair_at,
    read_cell,
    true_at,
    unpair,
    write_cell,
)
from .encodings import pi_to_bpi
from .lossy import LossyBackend
from .pi import (
    pi_barbed_bisimilar,
    pi_barbs,
    pi_input_continuations,
    pi_step_transitions,
    pi_tau_successors,
)
from .wireless import Topology, WirelessBackend

__all__ = [
    "BpiBackend", "CalculusBackend", "LossyBackend", "StructuralBackend",
    "Topology", "WirelessBackend",
    "ETHER", "CbsNil", "CbsPar", "CbsProcess", "CbsRec", "CbsSum", "CbsVar",
    "Hear", "Speak", "alphabet", "hears", "speaks", "to_bpi",
    "cbs_discards",
    "and_gate", "bool_at", "cell_at", "false_at", "if_then_else",
    "not_gate", "pair_at", "read_cell", "true_at", "unpair", "write_cell",
    "pi_to_bpi",
    "pi_barbed_bisimilar", "pi_barbs", "pi_input_continuations",
    "pi_step_transitions", "pi_tau_successors",
]
