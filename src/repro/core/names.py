"""Channel names and fresh-name supplies for the bpi-calculus.

The calculus (Table 1 of the paper) is built over a countable set ``Ch_b``
of channel names.  We represent names as plain Python strings: this keeps
process terms cheap to hash, easy to read in error messages, and trivially
serialisable.  Everything that needs "a name not occurring in ..." goes
through :func:`fresh_name` / :class:`NameSupply` so that freshness is
deterministic and reproducible.

A :class:`NameUniverse` finitizes the early input rule (rule (3) of Table 3
branches over *all* name vectors): exploration instantiates received names
over the free names of the system plus ``k`` canonical fresh names.  This is
the standard device for making image-finite fragments finitely checkable.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: A channel name.  Names are plain strings drawn from ``Ch_b``.
Name = str

#: Prefix used for machine-generated fresh names.  User-facing syntax
#: forbids names starting with this prefix, so generated names can never
#: collide with hand-written ones.
FRESH_PREFIX = "_f"

#: Regular expression for valid user-level names (parser-enforced).
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*")

_FRESH_RE = re.compile(re.escape(FRESH_PREFIX) + r"(\d+)$")


def is_valid_name(name: str) -> bool:
    """Return True if *name* is a well-formed channel name."""
    return bool(NAME_RE.fullmatch(name))


def is_fresh_name(name: Name) -> bool:
    """Return True if *name* was produced by the canonical fresh supply."""
    return bool(_FRESH_RE.fullmatch(name))


def fresh_index(name: Name) -> int | None:
    """Return the index of a canonical fresh name, or None."""
    m = _FRESH_RE.fullmatch(name)
    return int(m.group(1)) if m else None


def canonical_fresh(index: int) -> Name:
    """The *index*-th canonical fresh name (``_f0``, ``_f1``, ...)."""
    if index < 0:
        raise ValueError(f"fresh index must be non-negative, got {index}")
    return f"{FRESH_PREFIX}{index}"


def set_partitions(items: tuple[Name, ...]) -> Iterator[list[list[Name]]]:
    """All set partitions of *items* (restricted-growth enumeration)."""
    items = tuple(items)
    if not items:
        yield []
        return

    def rec(i: int, blocks: list[list[Name]]) -> Iterator[list[list[Name]]]:
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([items[i]])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def fresh_name(avoid: Iterable[Name], hint: Name | None = None) -> Name:
    """Return a name not in *avoid*.

    If *hint* is given, tries ``hint``, ``hint'``, ``hint''``, ... first,
    which keeps alpha-converted terms readable; otherwise draws from the
    canonical ``_f<i>`` supply.
    """
    avoid_set = set(avoid)
    if hint is not None:
        candidate = hint
        while candidate in avoid_set:
            candidate += "'"
        return candidate
    for i in itertools.count():
        candidate = canonical_fresh(i)
        if candidate not in avoid_set:
            return candidate
    raise AssertionError("unreachable")


def fresh_names(count: int, avoid: Iterable[Name],
                hints: tuple[Name, ...] | None = None) -> tuple[Name, ...]:
    """Return *count* pairwise-distinct names, none of which is in *avoid*."""
    avoid_set = set(avoid)
    out: list[Name] = []
    for i in range(count):
        hint = hints[i] if hints is not None and i < len(hints) else None
        n = fresh_name(avoid_set, hint)
        out.append(n)
        avoid_set.add(n)
    return tuple(out)


@dataclass
class NameSupply:
    """A deterministic stateful supply of fresh names.

    Used by the simulator and the encodings, where a long-lived source of
    distinct names is more convenient than threading avoid-sets around.
    """

    prefix: str = FRESH_PREFIX
    _counter: int = field(default=0, repr=False)

    def next(self, avoid: Iterable[Name] = ()) -> Name:
        """Return the next fresh name, skipping any member of *avoid*."""
        avoid_set = set(avoid)
        while True:
            candidate = f"{self.prefix}{self._counter}"
            self._counter += 1
            if candidate not in avoid_set:
                return candidate

    def take(self, count: int, avoid: Iterable[Name] = ()) -> tuple[Name, ...]:
        """Return *count* distinct fresh names."""
        avoid_set = set(avoid)
        out = []
        for _ in range(count):
            n = self.next(avoid_set)
            avoid_set.add(n)
            out.append(n)
        return tuple(out)


class NameUniverse:
    """A finite universe of names used to instantiate early inputs.

    ``known`` are the observable free names of the system under analysis;
    ``n_fresh`` canonical fresh names model the reception of previously
    unknown (e.g. extruded or environment-private) names.  For early
    bisimulation checking of processes whose inputs have arity at most *r*,
    ``n_fresh >= r`` suffices; we default to a small safety margin and let
    callers raise it.
    """

    __slots__ = ("known", "fresh", "_all")

    def __init__(self, known: Iterable[Name], n_fresh: int = 2):
        known_tuple = tuple(sorted(set(known)))
        if n_fresh < 0:
            raise ValueError("n_fresh must be non-negative")
        fresh_pool: list[Name] = []
        avoid = set(known_tuple)
        for i in itertools.count():
            if len(fresh_pool) == n_fresh:
                break
            candidate = canonical_fresh(i)
            if candidate not in avoid:
                fresh_pool.append(candidate)
        self.known: tuple[Name, ...] = known_tuple
        self.fresh: tuple[Name, ...] = tuple(fresh_pool)
        self._all: tuple[Name, ...] = known_tuple + tuple(fresh_pool)

    @property
    def all_names(self) -> tuple[Name, ...]:
        """All names in the universe (known ++ fresh), deterministic order."""
        return self._all

    def __contains__(self, name: Name) -> bool:
        return name in self._all

    def __iter__(self) -> Iterator[Name]:
        return iter(self._all)

    def __len__(self) -> int:
        return len(self._all)

    def __repr__(self) -> str:
        return f"NameUniverse(known={self.known!r}, fresh={self.fresh!r})"

    def extended(self, extra: Iterable[Name]) -> "NameUniverse":
        """Universe with *extra* added to the known names (fresh count kept)."""
        return NameUniverse(set(self.known) | set(extra), len(self.fresh))

    def vectors(self, arity: int) -> Iterator[tuple[Name, ...]]:
        """All name vectors of length *arity* over the universe.

        This is the instantiation set for an input of the given arity under
        the early rule (3).
        """
        return itertools.product(self._all, repeat=arity)
