"""The axiomatisation of strong congruence (Section 5)."""

from .conditions import (
    TRUE,
    And,
    Condition,
    Eq,
    Ne,
    Not,
    Partition,
    agrees,
    all_partitions,
    entails,
    equivalent,
    satisfiable,
)
from .decide import (
    bisimilar_finite,
    congruent_finite,
    noisy_finite,
    rebuild_sum,
)
from .nf import NFInput, NFOutput, NFPrefix, NFTau, NotFinite, head_summands
from .system import (
    Equation,
    all_axiom_instances,
    axiom_H,
    axiom_R,
    axiom_RP,
    axiom_S,
    axiom_SP,
    expansion_instance,
)

__all__ = [
    "TRUE", "And", "Condition", "Eq", "Ne", "Not", "Partition", "agrees",
    "all_partitions", "entails", "equivalent", "satisfiable",
    "bisimilar_finite", "congruent_finite", "noisy_finite", "rebuild_sum",
    "NFInput", "NFOutput", "NFPrefix", "NFTau", "NotFinite", "head_summands",
    "Equation", "all_axiom_instances", "axiom_H", "axiom_R", "axiom_RP",
    "axiom_S", "axiom_SP", "expansion_instance",
]
