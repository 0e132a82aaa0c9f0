"""Finite LTS construction and partition machinery."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".graph": ("DEFAULT_MAX_STATES", "LTS", "build_full_lts",
               "build_step_lts", "canonical_output_label"),
    ".minimize": ("MinimalLTS", "minimal_to_dot", "minimize", "to_dot"),
    ".partition": ("coarsest_partition", "coarsest_partition_labelled"),
    ".weak": ("reachability_closure", "weak_keys"),
})
