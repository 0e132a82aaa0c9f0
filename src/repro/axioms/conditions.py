"""Conditions over names (Section 5.1).

The axiomatisation generalises match/mismatch to boolean conditions::

    phi ::= (x = y) | not phi | phi and phi

A condition *complete on V* (Definition 16) decides every (in)equation over
V — it corresponds exactly to an equivalence relation (a set partition) of
V.  A substitution *agrees* with a condition (Definition 18) when it
identifies precisely the names the condition equates.

Conditions are represented syntactically (for stating axioms) and
semantically as :class:`Partition` values (for the normal forms, where
every summand is guarded by a complete condition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from ..core.names import Name, set_partitions


# ---------------------------------------------------------------------------
# Syntax of conditions
# ---------------------------------------------------------------------------

class Condition:
    """Base class of condition syntax."""

    def evaluate(self, sigma: Mapping[Name, Name]) -> bool:
        """Truth value once names are interpreted through *sigma*."""
        raise NotImplementedError

    def names(self) -> frozenset[Name]:
        raise NotImplementedError

    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)


@dataclass(frozen=True)
class Eq(Condition):
    """``(x = y)``."""

    left: Name
    right: Name

    def evaluate(self, sigma: Mapping[Name, Name]) -> bool:
        return sigma.get(self.left, self.left) == sigma.get(self.right, self.right)

    def names(self) -> frozenset[Name]:
        return frozenset((self.left, self.right))

    def __str__(self) -> str:
        return f"({self.left}={self.right})"


@dataclass(frozen=True)
class Not(Condition):
    """``not phi``."""

    operand: Condition

    def evaluate(self, sigma: Mapping[Name, Name]) -> bool:
        return not self.operand.evaluate(sigma)

    def names(self) -> frozenset[Name]:
        return self.operand.names()

    def __str__(self) -> str:
        return f"not {self.operand}"


@dataclass(frozen=True)
class And(Condition):
    """``phi1 and phi2``."""

    left: Condition
    right: Condition

    def evaluate(self, sigma: Mapping[Name, Name]) -> bool:
        return self.left.evaluate(sigma) and self.right.evaluate(sigma)

    def names(self) -> frozenset[Name]:
        return self.left.names() | self.right.names()

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class TrueCond(Condition):
    """The always-true condition."""

    def evaluate(self, sigma: Mapping[Name, Name]) -> bool:
        return True

    def names(self) -> frozenset[Name]:
        return frozenset()

    def __str__(self) -> str:
        return "True"


TRUE = TrueCond()


def Ne(x: Name, y: Name) -> Condition:
    """``(x != y)`` sugar."""
    return Not(Eq(x, y))


def conj(conds: list[Condition]) -> Condition:
    """Conjunction of a list (empty list = True)."""
    out: Condition = TRUE
    for c in conds:
        out = out & c if out is not TRUE else c
    return out


# ---------------------------------------------------------------------------
# Partitions = complete conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """An equivalence relation on a finite name set, canonically stored as a
    sorted tuple of sorted blocks.  This *is* a complete condition on its
    support (Definition 16)."""

    blocks: tuple[tuple[Name, ...], ...]

    @staticmethod
    def of(blocks: list[list[Name]]) -> "Partition":
        return Partition(tuple(sorted(tuple(sorted(b)) for b in blocks)))

    @staticmethod
    def discrete(names: frozenset[Name]) -> "Partition":
        """The identity partition (all blocks singletons)."""
        return Partition.of([[n] for n in sorted(names)])

    @property
    def support(self) -> frozenset[Name]:
        return frozenset(n for b in self.blocks for n in b)

    def representative(self, name: Name) -> Name:
        for b in self.blocks:
            if name in b:
                return b[0]  # blocks sorted: min element
        return name

    def equates(self, x: Name, y: Name) -> bool:
        return self.representative(x) == self.representative(y)

    def substitution(self) -> dict[Name, Name]:
        """The collapsing substitution (each name to its block minimum)."""
        sigma: dict[Name, Name] = {}
        for b in self.blocks:
            rep = b[0]
            for n in b[1:]:
                sigma[n] = rep
        return sigma

    def condition(self) -> Condition:
        """Syntactic complete condition equivalent to this partition."""
        clauses: list[Condition] = []
        names = sorted(self.support)
        for i, x in enumerate(names):
            for y in names[i + 1:]:
                clauses.append(Eq(x, y) if self.equates(x, y) else Ne(x, y))
        return conj(clauses)

    def restrict(self, names: frozenset[Name]) -> "Partition":
        """Project onto a subset of the support."""
        return Partition.of([
            [n for n in b if n in names]
            for b in self.blocks if any(n in names for n in b)])

    def extend_discrete(self, names: frozenset[Name]) -> "Partition":
        """Add names as fresh singleton blocks (private names equal nothing)."""
        extra = [[n] for n in sorted(names - self.support)]
        return Partition.of([list(b) for b in self.blocks] + extra)

    def singleton(self, name: Name) -> bool:
        """Is *name* in a block by itself (identified with nothing)?"""
        for b in self.blocks:
            if name in b:
                return len(b) == 1
        return True

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(b) + "}" for b in self.blocks) + "}"


def all_partitions(names: frozenset[Name]) -> Iterator[Partition]:
    """Every partition of *names* — i.e. every complete condition on them."""
    for blocks in set_partitions(tuple(sorted(names))):
        yield Partition.of(blocks)


def agrees(sigma: Mapping[Name, Name], cond: Condition) -> bool:
    """Definition 18: sigma agrees with phi when sigma(x) = sigma(y) iff
    phi entails (x = y), for names of phi.

    For a partition-derived complete condition this reduces to: sigma
    identifies exactly the names the partition equates.
    """
    names = sorted(cond.names())
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            identified = sigma.get(x, x) == sigma.get(y, y)
            if identified != _entails_eq(cond, x, y, names):
                return False
    return True


def _entails_eq(cond: Condition, x: Name, y: Name,
                names: list[Name]) -> bool:
    """Does *cond* entail (x = y)?  Decided by enumerating partitions of
    the condition's names: entailment = every satisfying partition equates
    x and y."""
    sat = [p for p in all_partitions(frozenset(names))
           if cond.evaluate(p.substitution())]
    if not sat:
        return False  # unsatisfiable: entails nothing usefully
    return all(p.equates(x, y) for p in sat)


def entails(phi: Condition, psi: Condition) -> bool:
    """phi => psi, by enumeration over partitions of their joint names."""
    names = phi.names() | psi.names()
    for p in all_partitions(names):
        sigma = p.substitution()
        if phi.evaluate(sigma) and not psi.evaluate(sigma):
            return False
    return True


def equivalent(phi: Condition, psi: Condition) -> bool:
    """phi <=> psi."""
    return entails(phi, psi) and entails(psi, phi)


def satisfiable(phi: Condition) -> bool:
    return any(phi.evaluate(p.substitution())
               for p in all_partitions(phi.names()))
