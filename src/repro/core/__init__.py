"""Core of the bpi-calculus: syntax, semantics, observables.

Re-exports the most frequently used pieces so that ``repro.core`` is a
one-stop import for building and stepping processes.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".actions": ("TAU", "Action", "InputAction", "OutputAction",
                 "TauAction"),
    ".builder": ("bang_like", "call", "choice", "define", "inp", "match_eq",
                 "match_ne", "nu", "out", "par", "tau"),
    ".cache": ("cache_stats", "clear_caches"),
    ".canonical": ("canonical_state",),
    ".discard": ("discards", "listening_channels"),
    ".freenames": ("all_names", "bound_names", "check_guarded",
                   "free_names", "is_closed"),
    ".names": ("Name", "NameSupply", "NameUniverse", "fresh_name",
               "fresh_names"),
    ".parser": ("ParseError", "parse"),
    ".pretty": ("pretty",),
    ".reduction": ("StateSpaceExceeded", "barbs", "has_barb"),
    ".semantics": ("check_sorts", "input_capabilities",
                   "input_continuations", "step_transitions",
                   "transitions"),
    ".substitution": ("alpha_eq", "apply_subst", "canonical_alpha",
                      "unfold_rec"),
    ".syntax": ("NIL", "Ident", "Input", "Match", "Nil", "Output", "Par",
                "Process", "Rec", "Restrict", "Sum", "Tau"),
})
