"""Core of the bpi-calculus: syntax, semantics, observables.

Re-exports the most frequently used pieces so that ``repro.core`` is a
one-stop import for building and stepping processes.
"""

from .actions import TAU, Action, InputAction, OutputAction, TauAction
from .builder import (
    bang_like,
    call,
    choice,
    define,
    inp,
    match_eq,
    match_ne,
    nu,
    out,
    par,
    tau,
)
from .cache import cache_stats, clear_caches
from .canonical import canonical_state
from .discard import discards, listening_channels
from .freenames import all_names, bound_names, check_guarded, free_names, is_closed
from .names import Name, NameSupply, NameUniverse, fresh_name, fresh_names
from .parser import ParseError, parse
from .pretty import pretty
from .reduction import StateSpaceExceeded, barbs, has_barb
from .semantics import (
    check_sorts,
    input_capabilities,
    input_continuations,
    step_transitions,
    transitions,
)
from .substitution import alpha_eq, apply_subst, canonical_alpha, unfold_rec
from .syntax import (
    NIL,
    Ident,
    Input,
    Match,
    Nil,
    Output,
    Par,
    Process,
    Rec,
    Restrict,
    Sum,
    Tau,
)

__all__ = [
    "TAU", "Action", "InputAction", "OutputAction", "TauAction",
    "bang_like", "call", "choice", "define", "inp", "match_eq", "match_ne",
    "nu", "out", "par", "tau",
    "cache_stats", "clear_caches",
    "canonical_state",
    "discards", "listening_channels",
    "all_names", "bound_names", "check_guarded", "free_names", "is_closed",
    "Name", "NameSupply", "NameUniverse", "fresh_name", "fresh_names",
    "ParseError", "parse", "pretty",
    "StateSpaceExceeded", "barbs", "has_barb",
    "check_sorts", "input_capabilities", "input_continuations",
    "step_transitions", "transitions",
    "alpha_eq", "apply_subst", "canonical_alpha", "unfold_rec",
    "NIL", "Ident", "Input", "Match", "Nil", "Output", "Par", "Process",
    "Rec", "Restrict", "Sum", "Tau",
]
