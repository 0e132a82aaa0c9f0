"""The axiomatisation of strong congruence (Section 5)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".conditions": ("TRUE", "And", "Condition", "Eq", "Ne", "Not",
                    "Partition", "agrees", "all_partitions", "entails",
                    "equivalent", "satisfiable"),
    ".decide": ("bisimilar_finite", "congruent_finite", "noisy_finite",
                "rebuild_sum"),
    ".nf": ("NFInput", "NFOutput", "NFPrefix", "NFTau", "NotFinite",
            "head_summands"),
    ".system": ("Equation", "all_axiom_instances", "axiom_H", "axiom_R",
                "axiom_RP", "axiom_S", "axiom_SP", "expansion_instance"),
})
