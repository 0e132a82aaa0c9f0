"""Behavioural equivalences of the bpi-calculus (Sections 3 and 4).

Three bisimilarities — barbed, step and labelled — with strong and weak
variants, the noisy relation ``~+``, and the induced congruence ``~c``.
Theorem 1 (they all coincide on image-finite processes, once closed under
static contexts) is exercised by the test suite and benchmarks.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".acceptance": ("acceptance_equal", "acceptance_sets",
                    "accepts_refines", "traces_upto"),
    ".barbed": ("barbed_bisimilar", "strong_barbed_bisimilar",
                "weak_barbed_bisimilar"),
    ".congruence": ("congruent", "identification_substitutions"),
    "..core.names": ("set_partitions",),
    ".contexts": ("StaticContext", "closed_under_contexts", "hole",
                  "observer_contexts", "sensor_fill", "static_contexts"),
    ".game": ("solve_game",),
    ".labelled": ("labelled_bisimilar", "strong_bisimilar",
                  "weak_bisimilar"),
    ".maytesting": ("may_equivalent_sampled", "may_pass",
                    "may_preorder_sampled", "observer_family",
                    "output_traces"),
    ".musttesting": ("must_equivalent_sampled", "must_pass",
                     "must_preorder_sampled"),
    ".noisy": ("strict_bisimilar",),
    ".onthefly": ("Closure", "DEFAULT_CLOSURES", "PartialProduct",
                  "ParallelContextClosure", "ReflexivityClosure",
                  "RenamingClosure", "RewriteClosure", "SymmetryClosure",
                  "explore_product", "reduction_challenges"),
    ".simulation": ("similar", "simulates"),
    ".step": ("step_bisimilar", "strong_step_bisimilar",
              "weak_step_bisimilar"),
})
