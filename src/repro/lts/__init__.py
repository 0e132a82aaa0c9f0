"""Finite LTS construction and partition machinery."""

from .graph import (
    DEFAULT_MAX_STATES,
    LTS,
    build_full_lts,
    build_step_lts,
    canonical_output_label,
)
from .minimize import MinimalLTS, minimal_to_dot, minimize, to_dot
from .partition import coarsest_partition, coarsest_partition_labelled
from .weak import reachability_closure, weak_keys

__all__ = [
    "DEFAULT_MAX_STATES", "LTS", "build_full_lts", "build_step_lts",
    "canonical_output_label",
    "MinimalLTS", "minimal_to_dot", "minimize", "to_dot",
    "coarsest_partition", "coarsest_partition_labelled",
    "reachability_closure", "weak_keys",
]
