"""Equational proofs in the axiom system A (Tables 6/7/8).

The decision procedure (:mod:`repro.axioms.decide`) answers *whether*
``p ~c q``; this module produces **derivations** — step-by-step equational
proofs whose every step is an instance of a named axiom applied under a
congruence context (the inference rules (A), (IP), (IC), (IS) of Table 6).

A :class:`Derivation` is a checkable certificate::

    d = prove_equal(parse("a! + (b! + a!)"), parse("b! + a!"))
    d.check()          # re-verifies every step semantically
    print(d)           # (S4) ... = ...   /   (S2) ... = ...

The prover is deliberately a *rewriting engine*, not the completeness
construction: it normalises both sides with a terminating, confluent-ish
subset of A (associativity/commutativity/units/idempotence of +, the
restriction axioms of Table 7, match resolution, (P1) and expansion for
||) and declares victory when the normal forms are alpha-equal.  It is
**sound** (every step is an axiom instance — re-checked against the
semantic congruence in the tests) and complete for the structural laws;
deciding the full congruence remains the job of ``decide`` (the (H)/(SP)
saturation is verdict-level, not rewrite-level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.freenames import free_names
from ..core.substitution import alpha_eq, canonical_alpha
from ..core.syntax import (
    NIL,
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
from ..engine.budget import (
    Budget,
    BudgetExceeded,
    Meter,
    resolve_meter,
)

#: Default budget for the rewriting engine (units = rewrite steps).
DEFAULT_BUDGET = Budget(max_states=2_000)


@dataclass(frozen=True)
class Step:
    """One proof step: *law* rewrote *before* into *after* (at some
    position inside the whole term — recorded as the whole-term pair)."""

    law: str
    before: Process
    after: Process

    def __str__(self) -> str:
        return f"({self.law})  {self.before}  =  {self.after}"


@dataclass
class Derivation:
    """A chain of axiom applications proving ``source = target`` in A."""

    source: Process
    target: Process
    steps: list[Step] = field(default_factory=list)
    closed: bool = False  # True when the chain connects source to target

    def __str__(self) -> str:
        lines = [f"prove  {self.source}  =  {self.target}"]
        lines += [f"  {s}" for s in self.steps]
        lines.append("  qed" if self.closed else "  (open)")
        return "\n".join(lines)

    @property
    def length(self) -> int:
        return len(self.steps)

    def check(self, semantic: bool = False) -> bool:
        """Validate the certificate.

        Structurally: consecutive steps chain up (modulo alpha) from the
        source, and the last step's result is alpha-equal to the target.
        With ``semantic=True`` every step is additionally re-verified as a
        strong congruence by the LTS-based checker (slow; used in tests).
        """
        current = self.source
        for step in self.steps:
            if not alpha_eq(current, step.before):
                return False
            if semantic:
                from ..equiv.congruence import congruent
                if not congruent(step.before, step.after):
                    return False
            current = step.after
        return not self.closed or alpha_eq(current, self.target)


# ---------------------------------------------------------------------------
# Rewrite rules: each returns (law, result) or None
# ---------------------------------------------------------------------------

Rule = Callable[[Process], "tuple[str, Process] | None"]


def _r_sum_nil(p: Process):
    if isinstance(p, Sum):
        if isinstance(p.right, Nil):
            return ("S1", p.left)
        if isinstance(p.left, Nil):
            return ("S1+S3", p.right)
    return None


def _r_sum_idem(p: Process):
    if isinstance(p, Sum) and alpha_eq(p.left, p.right):
        return ("S2", p.left)
    # adjacent duplicate inside a right-nested chain: p + (p + r) -> p + r
    if isinstance(p, Sum) and isinstance(p.right, Sum) \
            and alpha_eq(p.left, p.right.left):
        return ("S2+S4", p.right)
    return None


def _r_sum_assoc(p: Process):
    # right-rotate: (p + q) + r  ->  p + (q + r)
    if isinstance(p, Sum) and isinstance(p.left, Sum):
        return ("S4", Sum(p.left.left, Sum(p.left.right, p.right)))
    return None


def _r_sum_comm(p: Process):
    # order summands canonically (S3); only fire when it reorders, to
    # keep the system terminating
    if isinstance(p, Sum) and not isinstance(p.right, Sum):
        if _order_key(p.right) < _order_key(p.left):
            return ("S3", Sum(p.right, p.left))
    if isinstance(p, Sum) and isinstance(p.right, Sum):
        if _order_key(p.right.left) < _order_key(p.left):
            return ("S3+S4", Sum(p.right.left, Sum(p.left, p.right.right)))
    return None


def _order_key(p: Process) -> tuple:
    c = canonical_alpha(p)
    return (c.__class__.__name__, hash(c))


def _r_par_nil(p: Process):
    if isinstance(p, Par):
        if isinstance(p.right, Nil):
            return ("P1", p.left)
        if isinstance(p.left, Nil):
            return ("P1(comm)", p.right)
    return None


def _r_match_resolve(p: Process):
    if isinstance(p, Match):
        if p.left == p.right:
            return ("C-true", p.then)
        # only resolvable against distinct *literals* when closed — the
        # rewriting engine works on closed terms where all names are
        # concrete, so distinct names are genuinely distinct... under the
        # identity substitution only.  We therefore resolve only (x=x);
        # mismatched conditions stay (they are substitution-sensitive).
    return None


def _r_restrict_dead(p: Process):
    if isinstance(p, Restrict) and p.name not in free_names(p.body):
        return ("R-gc", p.body)
    return None


def _r_restrict_nil(p: Process):
    if isinstance(p, Restrict) and isinstance(p.body, Nil):
        return ("R-nil", NIL)
    return None


def _r_restrict_sum(p: Process):
    if isinstance(p, Restrict) and isinstance(p.body, Sum):
        return ("R2", Sum(Restrict(p.name, p.body.left),
                          Restrict(p.name, p.body.right)))
    return None


def _r_restrict_prefix(p: Process):
    if not isinstance(p, Restrict):
        return None
    x, body = p.name, p.body
    if isinstance(body, Tau):
        return ("RP1", Tau(Restrict(x, body.cont)))
    if isinstance(body, Output):
        if body.chan == x:
            return ("RP2", Tau(Restrict(x, body.cont)))
        if x not in body.args:
            return ("RP1", Output(body.chan, body.args,
                                  Restrict(x, body.cont)))
    if isinstance(body, Input):
        if body.chan == x:
            return ("RP3", NIL)
        if x not in body.params:
            return ("RP1", Input(body.chan, body.params,
                                 Restrict(x, body.cont)))
    return None


def _r_restrict_match(p: Process):
    if not isinstance(p, Restrict) or not isinstance(p.body, Match):
        return None
    x, m = p.name, p.body
    if x in (m.left, m.right) and m.left != m.right:
        # the private name equals nothing else: take the else-branch (RM1
        # generalised to two-armed matches)
        return ("RM1", Restrict(x, m.orelse))
    if x not in (m.left, m.right):
        return ("RM2", Match(m.left, m.right,
                             Restrict(x, m.then), Restrict(x, m.orelse)))
    return None


RULES: tuple[Rule, ...] = (
    _r_sum_nil, _r_sum_idem, _r_sum_assoc, _r_sum_comm,
    _r_par_nil, _r_match_resolve,
    _r_restrict_dead, _r_restrict_nil, _r_restrict_sum,
    _r_restrict_prefix, _r_restrict_match,
)


def _rewrite_once(p: Process) -> "tuple[str, Process] | None":
    """Apply the first applicable rule at the outermost-leftmost position.

    Positions under prefixes are rewritten too — that is the (IP)
    inference rule; positions inside sums/pars/matches are (IS)/(IC).
    """
    for rule in RULES:
        hit = rule(p)
        if hit is not None:
            return hit
    # descend
    if isinstance(p, Tau):
        sub = _rewrite_once(p.cont)
        if sub:
            return (sub[0], Tau(sub[1]))
    elif isinstance(p, Input):
        sub = _rewrite_once(p.cont)
        if sub:
            return (sub[0], Input(p.chan, p.params, sub[1]))
    elif isinstance(p, Output):
        sub = _rewrite_once(p.cont)
        if sub:
            return (sub[0], Output(p.chan, p.args, sub[1]))
    elif isinstance(p, Restrict):
        sub = _rewrite_once(p.body)
        if sub:
            return (sub[0], Restrict(p.name, sub[1]))
    elif isinstance(p, Match):
        sub = _rewrite_once(p.then)
        if sub:
            return (sub[0], Match(p.left, p.right, sub[1], p.orelse))
        sub = _rewrite_once(p.orelse)
        if sub:
            return (sub[0], Match(p.left, p.right, p.then, sub[1]))
    elif isinstance(p, Sum):
        sub = _rewrite_once(p.left)
        if sub:
            return (sub[0], Sum(sub[1], p.right))
        sub = _rewrite_once(p.right)
        if sub:
            return (sub[0], Sum(p.left, sub[1]))
    elif isinstance(p, Par):
        sub = _rewrite_once(p.left)
        if sub:
            return (sub[0], Par(sub[1], p.right))
        sub = _rewrite_once(p.right)
        if sub:
            return (sub[0], Par(p.left, sub[1]))
    elif isinstance(p, Rec):
        return None  # folded recursions are atomic for the finite system
    return None


def normalize(p: Process, *,
              budget: Budget | Meter | None = None) -> Derivation:
    """Rewrite *p* to a normal form, recording every step.

    Each rewrite step charges one unit against the budget; exhaustion
    raises :class:`~repro.engine.budget.BudgetExceeded` (a
    ``RuntimeError``, as the old cap was) with the partial derivation on
    ``exc.partial``.
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    d = Derivation(source=p, target=p)
    current = p
    while True:
        hit = _rewrite_once(current)
        if hit is None:
            break
        try:
            meter.charge()
        except BudgetExceeded as exc:
            d.target = current
            if exc.partial is None:
                exc.partial = d
            raise
        law, nxt = hit
        d.steps.append(Step(law, current, nxt))
        current = nxt
    d.target = current
    d.closed = True
    return d


def prove_equal(p: Process, q: Process, *,
                budget: Budget | Meter | None = None) -> "Derivation | None":
    """Try to prove ``p = q`` in A by joining their normal forms.

    Returns a derivation from *p* to *q* (the q-side steps reversed —
    equational reasoning is symmetric), or None when the normal forms
    differ (which does NOT refute ``p ~c q``; see the module docstring).
    Both normalizations draw from one shared budget.
    """
    meter = resolve_meter(budget, DEFAULT_BUDGET)
    dp = normalize(p, budget=meter)
    dq = normalize(q, budget=meter)
    if not alpha_eq(dp.target, dq.target):
        return None
    joined = Derivation(source=p, target=q)
    joined.steps = list(dp.steps)
    if not alpha_eq(dp.target, dq.target):
        return None
    if dp.target != dq.target:
        joined.steps.append(Step("A", dp.target, dq.target))
    joined.steps += [Step(f"{s.law}⁻¹", s.after, s.before)
                     for s in reversed(dq.steps)]
    joined.closed = True
    return joined
