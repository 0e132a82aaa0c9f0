"""Sort inference for the polyadic calculus.

The paper works (as is standard since Milner's polyadic pi) with an
implicitly *well-sorted* calculus: every channel carries tuples of a fixed
shape.  Mixing arities on one channel would break the input/discard
dichotomy (a listener at the wrong arity can neither receive nor discard),
so the library makes the discipline checkable:

* :func:`infer_sorts` — Hindley-Milner-style unification over name
  occurrences; returns a table of channel sorts (possibly recursive, e.g.
  the uniform sort ``t = ch(t)`` of the test strategies);
* :func:`check_well_sorted` — raises :class:`SortError` with a helpful
  message on inconsistency;
* :func:`sorts_compatible` — may two names be identified by a
  substitution without breaking the discipline?  Used to restrict the
  congruence sweep to sort-respecting substitutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .names import Name, set_partitions
from .syntax import (
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


class SortError(ValueError):
    """A channel is used at incompatible shapes.

    ``path`` (when set) is the occurrence path — child indices from the
    root, :meth:`~repro.core.syntax.Process.children` order — of the
    subterm whose constraint first exposed the inconsistency.  The
    diagnostics layer (:mod:`repro.lint`) joins it against the parser's
    span table to point at the offending source text.
    """

    def __init__(self, message: str, *, path: "tuple[int, ...] | None" = None):
        super().__init__(message)
        self.path = path


@dataclass
class SortVar:
    """A unifiable sort: possibly-known object shape (list of SortVars)."""

    id: int
    parent: "SortVar | None" = None
    objects: "tuple[SortVar, ...] | None" = None
    origin: str = ""

    def find(self) -> "SortVar":
        node = self
        while node.parent is not None:
            node = node.parent
        # path compression
        walk = self
        while walk.parent is not None:
            walk.parent, walk = node, walk.parent
        return node


class SortTable:
    """Result of inference: name -> sort variable (find for identity)."""

    def __init__(self) -> None:
        self._counter = 0
        self.by_name: dict[Name, SortVar] = {}

    def fresh(self, origin: str = "") -> SortVar:
        self._counter += 1
        return SortVar(self._counter, origin=origin)

    def of(self, name: Name) -> SortVar:
        got = self.by_name.get(name)
        if got is None:
            got = self.fresh(origin=f"name {name!r}")
            self.by_name[name] = got
        return got

    def unify(self, a: SortVar, b: SortVar, where: str = "") -> None:
        ra, rb = a.find(), b.find()
        if ra is rb:
            return
        if ra.objects is not None and rb.objects is not None:
            if len(ra.objects) != len(rb.objects):
                raise SortError(
                    f"channel shapes differ ({len(ra.objects)} vs "
                    f"{len(rb.objects)} objects){': ' + where if where else ''}")
            # union first (so recursive sorts terminate), then objects
            rb.parent = ra
            for x, y in zip(ra.objects, rb.objects):
                self.unify(x, y, where)
            return
        if ra.objects is None:
            ra.objects = rb.objects
        rb.parent = ra

    def constrain_channel(self, chan: SortVar, objects: list[SortVar],
                          where: str) -> None:
        """Record that *chan* carries the given object sorts."""
        shape = self.fresh(origin=where)
        shape.objects = tuple(objects)
        self.unify(chan, shape, where)

    def arity_of(self, name: Name) -> int | None:
        """The carried arity of *name*'s sort, if it is used as a channel."""
        var = self.by_name.get(name)
        if var is None:
            return None
        objs = var.find().objects
        return None if objs is None else len(objs)

    def describe(self, name: Name, _depth: int = 0) -> str:
        """Human-readable sort, cycles rendered as 'rec'."""
        var = self.by_name.get(name)
        if var is None:
            return "?"
        return _describe(var, set())


def _describe(var: SortVar, seen: set[int]) -> str:
    root = var.find()
    if root.id in seen:
        return "rec"
    objs = root.objects
    if objs is None:
        return "?"
    inner = ", ".join(_describe(o, seen | {root.id}) for o in objs)
    return f"ch({inner})"


def infer_sorts(p: Process) -> SortTable:
    """Infer channel sorts for *p*; raises :class:`SortError` if ill-sorted.

    The walk tracks occurrence paths (children() order), so a raised
    :class:`SortError` carries the ``path`` of the subterm whose
    constraint exposed the inconsistency.
    """
    table = SortTable()

    def walk(q: Process, env: dict[Name, SortVar],
             path: tuple[int, ...]) -> None:
        def var_of(n: Name) -> SortVar:
            return env.get(n) or table.of(n)

        try:
            if isinstance(q, Nil):
                return
            if isinstance(q, Tau):
                walk(q.cont, env, path + (0,))
            elif isinstance(q, Input):
                params = {x: table.fresh(origin=f"param {x!r}")
                          for x in q.params}
                table.constrain_channel(var_of(q.chan), list(params.values()),
                                        f"input on {q.chan!r}")
                walk(q.cont, {**env, **params}, path + (0,))
            elif isinstance(q, Output):
                table.constrain_channel(var_of(q.chan),
                                        [var_of(a) for a in q.args],
                                        f"output on {q.chan!r}")
                walk(q.cont, env, path + (0,))
            elif isinstance(q, Restrict):
                inner = {**env, q.name: table.fresh(origin=f"nu {q.name!r}")}
                walk(q.body, inner, path + (0,))
            elif isinstance(q, Match):
                # matched names must be identifiable: unify their sorts
                table.unify(var_of(q.left), var_of(q.right),
                            f"match [{q.left}={q.right}]")
                walk(q.then, env, path + (0,))
                walk(q.orelse, env, path + (1,))
            elif isinstance(q, (Sum, Par)):
                walk(q.left, env, path + (0,))
                walk(q.right, env, path + (1,))
            elif isinstance(q, Rec):
                params = {x: table.fresh(origin=f"rec param {x!r}")
                          for x in q.params}
                for x, a in zip(q.params, q.args):
                    table.unify(params[x], var_of(a), f"rec arg {a!r}")
                walk(q.body, {**env, **params}, path + (0,))
            elif isinstance(q, Ident):
                # occurrences inside a rec body: the paper requires the args
                # to be (a permutation of a subset of) the parameters; their
                # sorts are already in scope.  Cross-unify positionally with
                # the enclosing rec is done at the Rec node via args; here we
                # only touch the occurrence's own names.
                for a in q.args:
                    var_of(a)
            else:
                raise TypeError(type(q).__name__)
        except SortError as exc:
            # Attach the innermost path at which the inconsistency surfaced
            # (the recursive re-raise would otherwise overwrite it with an
            # enclosing, less precise path).
            if exc.path is None:
                exc.path = path
            raise

    walk(p, {}, ())
    return table


def check_well_sorted(p: Process) -> SortTable:
    """Alias of :func:`infer_sorts` (kept for call-site readability)."""
    return infer_sorts(p)


def sorts_compatible(table: SortTable, x: Name, y: Name) -> bool:
    """Could a substitution identify *x* and *y* without ill-sorting?

    Conservative: True when the two sorts unify (checked on a scratch
    copy by arity comparison along the spine)."""
    ax, ay = table.arity_of(x), table.arity_of(y)
    if ax is None or ay is None:
        return True
    return ax == ay


def sort_respecting_partitions(names: frozenset[Name], table: SortTable,
                               ) -> Iterator:
    """Partitions of *names* whose blocks are pairwise sort-compatible."""
    from itertools import combinations

    for blocks in set_partitions(tuple(sorted(names))):
        ok = True
        for block in blocks:
            for a, b in combinations(block, 2):
                if not sorts_compatible(table, a, b):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield blocks
