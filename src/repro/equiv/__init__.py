"""Behavioural equivalences of the bpi-calculus (Sections 3 and 4).

Three bisimilarities — barbed, step and labelled — with strong and weak
variants, the noisy relation ``~+``, and the induced congruence ``~c``.
Theorem 1 (they all coincide on image-finite processes, once closed under
static contexts) is exercised by the test suite and benchmarks.
"""

from ..core.names import set_partitions
from .acceptance import (
    acceptance_equal,
    acceptance_sets,
    accepts_refines,
    traces_upto,
)
from .barbed import barbed_bisimilar, strong_barbed_bisimilar, weak_barbed_bisimilar
from .congruence import congruent, identification_substitutions
from .contexts import (
    StaticContext,
    closed_under_contexts,
    hole,
    observer_contexts,
    sensor_fill,
    static_contexts,
)
from .game import solve_game
from .labelled import labelled_bisimilar, strong_bisimilar, weak_bisimilar
from .maytesting import (
    may_equivalent_sampled,
    may_pass,
    may_preorder_sampled,
    observer_family,
    output_traces,
)
from .musttesting import (
    must_equivalent_sampled,
    must_pass,
    must_preorder_sampled,
)
from .noisy import strict_bisimilar
from .onthefly import (
    DEFAULT_CLOSURES,
    Closure,
    ParallelContextClosure,
    PartialProduct,
    ReflexivityClosure,
    RenamingClosure,
    RewriteClosure,
    SymmetryClosure,
    explore_product,
    reduction_challenges,
)
from .simulation import similar, simulates
from .step import step_bisimilar, strong_step_bisimilar, weak_step_bisimilar

__all__ = [
    "acceptance_equal", "acceptance_sets", "accepts_refines", "traces_upto",
    "barbed_bisimilar", "strong_barbed_bisimilar", "weak_barbed_bisimilar",
    "congruent", "identification_substitutions", "set_partitions",
    "StaticContext", "closed_under_contexts", "hole", "observer_contexts",
    "sensor_fill", "static_contexts",
    "solve_game",
    "labelled_bisimilar", "strong_bisimilar", "weak_bisimilar",
    "must_equivalent_sampled", "must_pass", "must_preorder_sampled",
    "strict_bisimilar",
    "Closure", "DEFAULT_CLOSURES", "PartialProduct",
    "ParallelContextClosure", "ReflexivityClosure", "RenamingClosure",
    "RewriteClosure", "SymmetryClosure",
    "explore_product", "reduction_challenges",
    "similar", "simulates",
    "step_bisimilar", "strong_step_bisimilar", "weak_step_bisimilar",
]
