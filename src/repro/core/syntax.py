"""Abstract syntax of the bpi-calculus (Table 1 of the paper).

The grammar is::

    p, q ::= nil                    inaction
           | tau.p                  silent prefix
           | x(y1,...,yk).p         input prefix (binds y1..yk in p)
           | x<y1,...,yk>.p         output prefix (broadcast)
           | nu x p                 channel creation (binds x in p)
           | [x=y] p, q             match: behaves as p if x=y, else q
           | p + q                  choice
           | p || q                 parallel composition
           | X<y1,...,yk>           process identifier occurrence
           | (rec X(x1..xk). p)<y>  recursion (X must occur guarded in p)

Process terms are immutable trees with cached structural hashes, so they can
be used as dictionary keys / set members during state-space exploration.
Node classes expose a uniform ``_fields`` protocol used by generic traversal
code (free names, substitution, printing).

Terms are **hash-consed**: every constructor call is routed through a
per-process intern table, so structurally equal terms are the *same*
object.  This makes ``==`` an identity check in the common case, dict/set
operations O(1) without tree walks, and lets semantic functions cache
their results directly on the node (``free_names``, ``canonical_state``,
``step_transitions``, ``input_continuations``, ``In(p)`` ... use the
``_NODE_CACHE_SLOTS`` below; the comment beside each slot names its
owner).  :mod:`repro.core.cache` exposes ``clear_caches()`` /
``cache_stats()`` over this machinery.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterator

from .names import Name

#: Slots reserved on every node for memoized semantic results.  Each is
#: owned by the one function named in its comment; they are pure
#: functions of the term's structure, so sharing nodes shares results.
_NODE_CACHE_SLOTS = (
    "_fn",       # freenames.free_names
    "_bn",       # freenames.bound_names
    "_fo",       # freenames.free_occurrence_order
    "_alpha",    # substitution.canonical_alpha
    "_nb",       # substitution._binder_count
    "_sub",      # substitution._apply_trim (image of _fo -> renamed node)
    "_steps",    # semantics.Table3.step_transitions (the paper's rules)
    "_inputs",   # semantics.Table3._deliver (the paper's rules): a dict
                 # (chan, values) -> input_continuations residuals
    "_caps",     # semantics.input_capabilities
    "_barbs",    # reduction.barbs
    "_listen",   # discard.listening_channels (In(p); discards reads it)
    "_nf",       # canonical._normalize(p, collapse=False), which is
                 # canonical_state(p); a spine node that normalization
                 # builds holds itself
    "_nf2",      # canonical._normalize(p, collapse=True), which is
                 # canonical_state_collapsed(p); likewise
    "_stable",   # canonical._stable_fingerprint
    "_phisucc",  # equiv.reduction_graph.phi_successors (steps=True)
    "_tausucc",  # equiv.reduction_graph.phi_successors (steps=False)
)

#: The global intern table: structural key -> the unique node.
_INTERN: dict[tuple, "Process"] = {}

#: Intern-table hit/miss counters (reset by clear_intern_table).
_INTERN_STATS = {"hits": 0, "misses": 0}


class Keyed:
    """Base of node and action classes: an instance's structural key is
    ``(obj.__class__,) + (obj.<field>, ...)`` over the class's
    ``_fields``.

    Each class gets its getter once, as ``_key_of``: with fields, one
    C-level ``operator.attrgetter``, which returns a tuple for two or
    more attributes; without (a singleton), a plain function.  It is
    wrapped in a ``staticmethod`` so that the function, not a bound
    method, is read through an instance.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _key_of: Callable[[Any], tuple[Any, ...]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        key_of = (attrgetter("__class__", *cls._fields) if cls._fields
                  else lambda obj: (obj.__class__,))
        cls._key_of = staticmethod(key_of)  # type: ignore[assignment]

    def _key(self) -> tuple[Any, ...]:
        return self._key_of(self)


class _InternMeta(type):
    """Metaclass routing construction through the intern table.

    The candidate node is built normally (``__init__`` validates and
    normalizes the fields) and then deduplicated against the table; the
    table key is the structural ``_key()``, built once here, and the
    node's cached hash is the key's hash.  The key's Process members are
    already interned, so key hashing and comparison are shallow.
    """

    def __call__(cls, *args: Any, **kwargs: Any) -> "Process":
        probe = None
        if not kwargs and len(args) == len(cls._fields):
            # Fast path: positional args in already-normalized form (the
            # overwhelmingly common case in rewriting loops) can be matched
            # against the table without building a candidate.  A miss here
            # is not authoritative — un-normalized spellings fall through.
            probe = (cls,) + args
            try:
                cached = _INTERN.get(probe)
            except TypeError:  # unhashable spelling, e.g. a list of names
                probe = cached = None
            if cached is not None:
                _INTERN_STATS["hits"] += 1
                return cached
        obj = super().__call__(*args, **kwargs)
        key = obj._key()
        obj._hash = hash(key)
        if key != probe:  # a spelling the constructor normalized
            cached = _INTERN.get(key)
            if cached is not None:
                _INTERN_STATS["hits"] += 1
                return cached
        _INTERN_STATS["misses"] += 1
        _INTERN[key] = obj
        return obj


def purge_node_caches(slots: tuple[str, ...] = _NODE_CACHE_SLOTS) -> None:
    """Drop the given memoized results from every interned node.

    The ``NIL`` singleton is purged too: it is used directly without
    passing the constructor, so it may be out of the table yet memoized.
    """
    for node in (*_INTERN.values(), NIL):
        for slot in slots:
            try:
                delattr(node, slot)
            except AttributeError:
                pass


def clear_intern_table() -> None:
    """Purge node caches, empty the intern table and reset its stats.

    Live terms held by callers stay valid (equality falls back to the
    structural comparison), but new terms re-intern from scratch.
    """
    purge_node_caches()
    _INTERN.clear()
    _INTERN_STATS["hits"] = 0
    _INTERN_STATS["misses"] = 0


def intern_stats() -> dict[str, int | float]:
    """Hit/miss counters and current size of the intern table."""
    hits, misses = _INTERN_STATS["hits"], _INTERN_STATS["misses"]
    total = hits + misses
    return {"interned": len(_INTERN), "hits": hits, "misses": misses,
            "hit_rate": (hits / total) if total else 0.0}


class Process(Keyed, metaclass=_InternMeta):
    """Base class of all process terms.

    Subclasses declare ``__slots__`` for their fields and list them in
    ``_fields``; equality and hashing are structural and cached.  Thanks to
    interning, structurally equal terms are pointer-identical, so the
    identity fast path of ``__eq__`` is the common case.
    """

    __slots__ = ("_hash",) + _NODE_CACHE_SLOTS

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if self.__class__ is not other.__class__:
            return NotImplemented if not isinstance(other, Process) else False
        assert isinstance(other, Process)
        if self._hash != other._hash:
            return False
        return self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        args = ", ".join(repr(getattr(self, f)) for f in self._fields)
        return f"{self.__class__.__name__}({args})"

    def __str__(self) -> str:
        from .pretty import pretty
        return pretty(self)

    # Convenience operators for building terms in Python code ------------
    def __add__(self, other: "Process") -> "Process":
        return Sum(self, other)

    def __or__(self, other: "Process") -> "Process":
        return Par(self, other)

    def children(self) -> Iterator["Process"]:
        """Immediate sub-processes (not descending under prefixes' names)."""
        for f in self._fields:
            v = getattr(self, f)
            if isinstance(v, Process):
                yield v

    def size(self) -> int:
        """Number of AST nodes; a crude measure of term size."""
        return 1 + sum(c.size() for c in self.children())

    def depth(self) -> int:
        """Longest constructor chain; prefixes contribute 1 each."""
        child_depths = [c.depth() for c in self.children()]
        return 1 + (max(child_depths) if child_depths else 0)


def _check_name(value: object, what: str) -> Name:
    if not isinstance(value, str) or not value:
        raise TypeError(f"{what} must be a non-empty string, got {value!r}")
    return value


def _check_names(values: object, what: str) -> tuple[Name, ...]:
    if isinstance(values, str):
        raise TypeError(f"{what} must be a sequence of names, got bare string {values!r}")
    out = tuple(values)  # type: ignore[arg-type]
    for v in out:
        _check_name(v, f"member of {what}")
    return out


def _check_process(value: object, what: str) -> Process:
    if not isinstance(value, Process):
        raise TypeError(f"{what} must be a Process, got {type(value).__name__}")
    return value


class Nil(Process):
    """The inert process ``nil``."""

    __slots__ = ()
    _fields = ()

    _instance: "Nil | None" = None

    def __new__(cls) -> "Nil":
        # nil is interned: there is a single Nil object.
        if cls._instance is None:
            obj = super().__new__(cls)
            obj._hash = hash((cls,))
            cls._instance = obj
        return cls._instance


#: The interned inert process.
NIL = Nil()


class Tau(Process):
    """Silent prefix ``tau.p``."""

    __slots__ = ("cont",)
    _fields = ("cont",)

    def __init__(self, cont: Process = NIL):
        self.cont = _check_process(cont, "Tau continuation")


class Input(Process):
    """Input prefix ``x(y1,...,yk).p``; the ``params`` bind in ``cont``.

    Receiving on channel ``chan`` is *externally controlled*: a process
    listening on ``chan`` cannot refuse a broadcast made on it.
    """

    __slots__ = ("chan", "params", "cont")
    _fields = ("chan", "params", "cont")

    def __init__(self, chan: Name, params: tuple[Name, ...] = (),
                 cont: Process = NIL):
        self.chan = _check_name(chan, "Input channel")
        self.params = _check_names(params, "Input parameters")
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"input parameters must be distinct: {self.params}")
        self.cont = _check_process(cont, "Input continuation")

    @property
    def arity(self) -> int:
        return len(self.params)


class Output(Process):
    """Output prefix ``x<y1,...,yk>.p`` — a non-blocking broadcast."""

    __slots__ = ("chan", "args", "cont")
    _fields = ("chan", "args", "cont")

    def __init__(self, chan: Name, args: tuple[Name, ...] = (),
                 cont: Process = NIL):
        self.chan = _check_name(chan, "Output channel")
        self.args = _check_names(args, "Output arguments")
        self.cont = _check_process(cont, "Output continuation")

    @property
    def arity(self) -> int:
        return len(self.args)


class Restrict(Process):
    """Channel creation ``nu x p``; ``name`` binds in ``body``."""

    __slots__ = ("name", "body")
    _fields = ("name", "body")

    def __init__(self, name: Name, body: Process):
        self.name = _check_name(name, "Restrict name")
        self.body = _check_process(body, "Restrict body")


class Match(Process):
    """Conditional ``[x=y] p, q``: behaves as *then* if x = y, else *orelse*."""

    __slots__ = ("left", "right", "then", "orelse")
    _fields = ("left", "right", "then", "orelse")

    def __init__(self, left: Name, right: Name, then: Process,
                 orelse: Process = NIL):
        self.left = _check_name(left, "Match left name")
        self.right = _check_name(right, "Match right name")
        self.then = _check_process(then, "Match then-branch")
        self.orelse = _check_process(orelse, "Match else-branch")


class Sum(Process):
    """Choice ``p + q``."""

    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __init__(self, left: Process, right: Process):
        self.left = _check_process(left, "Sum left")
        self.right = _check_process(right, "Sum right")


class Par(Process):
    """Parallel composition ``p || q`` (broadcast-synchronising)."""

    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __init__(self, left: Process, right: Process):
        self.left = _check_process(left, "Par left")
        self.right = _check_process(right, "Par right")


class Ident(Process):
    """Occurrence ``X<y1,...,yk>`` of a process identifier.

    Free identifiers only appear inside the body of an enclosing ``Rec`` (or
    in *open* processes used by Definition 12 of the paper).
    """

    __slots__ = ("ident", "args")
    _fields = ("ident", "args")

    def __init__(self, ident: str, args: tuple[Name, ...] = ()):
        if not isinstance(ident, str) or not ident:
            raise TypeError(f"identifier must be a non-empty string, got {ident!r}")
        self.ident = ident
        self.args = _check_names(args, "Ident arguments")


class Rec(Process):
    """Recursive process ``(rec X(x1..xk). body)<y1..yk>``.

    ``params`` bind in ``body`` together with the identifier ``ident``; the
    term is the body instantiated at ``args``.  The paper requires ``X`` to
    occur *guarded* in ``body`` (underneath a prefix) — validated by
    :func:`repro.core.freenames.check_guarded`.
    """

    __slots__ = ("ident", "params", "body", "args")
    _fields = ("ident", "params", "body", "args")

    def __init__(self, ident: str, params: tuple[Name, ...], body: Process,
                 args: tuple[Name, ...]):
        if not isinstance(ident, str) or not ident:
            raise TypeError(f"identifier must be a non-empty string, got {ident!r}")
        self.ident = ident
        self.params = _check_names(params, "Rec parameters")
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"rec parameters must be distinct: {self.params}")
        self.body = _check_process(body, "Rec body")
        self.args = _check_names(args, "Rec arguments")
        if len(self.args) != len(self.params):
            raise ValueError(
                f"rec {ident}: arity mismatch, params {self.params} vs args {self.args}")


def iter_subterms(p: Process) -> Iterator[Process]:
    """Yield *p* and all its sub-processes, pre-order."""
    stack = [p]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def count_nodes(p: Process) -> int:
    """Total number of AST nodes in *p* (iterative; safe on deep terms)."""
    return sum(1 for _ in iter_subterms(p))
