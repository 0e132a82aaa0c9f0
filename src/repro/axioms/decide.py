"""Syntactic decision procedure for strong congruence (Theorems 6/7).

Decides ``p ~c q`` on finite processes by structural recursion over head
normal forms, following the shape of the completeness proof:

* ``p ~c q  iff  for every complete condition (partition) on fn(p,q),
  the enabled head summands match *strictly* — tau by tau, outputs by
  binder-aligned outputs, inputs by same-subject inputs — with
  continuations related by the noisy closure'' (the first step is the
  ``~+`` of Definition 11);

* continuations are compared by ``match`` with the *noisy* input clause —
  an input may be answered by the partner's discard (and vice versa),
  which is precisely the gap the (H) axiom closes in the proof;

* received values are treated symbolically: an input parameter extends the
  current partition in every possible way (joining any block, or fresh) —
  this is where the (SP) axiom's per-value branching lives;

* extruded names extend the partition only as fresh singletons (a private
  name equals nothing).

The procedure terminates because every recursion strictly decreases the
total number of prefixes in the pair.  ``tests/test_decide.py``
cross-validates it against the semantic (LTS-based) checker on exhaustive
small-process enumerations and random terms — the executable content of
the soundness + completeness theorems.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator

from ..core.freenames import free_names
from ..core.names import Name
from ..core.substitution import apply_subst
from ..core.syntax import Process
from ..engine.budget import Budget, BudgetExceeded, Meter, resolve_meter
from ..engine.verdict import Verdict
from ..obs import metrics as _metrics, progress as _progress, tracing as _tracing
from ..obs.state import STATE as _OBS
from .conditions import Partition, all_partitions
from .nf import NFInput, NFOutput, NFPrefix, NFTau, Summand, head_summands


def congruent_finite(p: Process, q: Process, *,
                     budget: Budget | Meter | None = None) -> Verdict:
    """Decide ``p ~c q`` for finite processes (Section 5 fragment).

    The procedure always terminates, so the default budget is unlimited;
    a *budget* (each ``_match`` call charges one unit; deadlines and
    cancellation are polled) turns pathological blowups into ``UNKNOWN``.
    """
    meter = resolve_meter(budget)
    names = free_names(p) | free_names(q)
    with _tracing.span("axioms.congruent_finite") as sp:
        flag = True
        n_conditions = 0
        try:
            for part in all_partitions(names):
                n_conditions += 1
                if _OBS.enabled:
                    _metrics.inc("axioms.conditions_checked")
                    _progress.report("axioms.congruent_finite",
                                     conditions=n_conditions)
                if not _match(p, q, part, noisy=False, meter=meter):
                    flag = False
                    break
        except BudgetExceeded as exc:
            sp.set(verdict="unknown", conditions=n_conditions)
            return Verdict.from_exceeded(exc)
        sp.set(verdict=flag, conditions=n_conditions)
    return Verdict.of(flag, stats=meter.stats())


def bisimilar_finite(p: Process, q: Process, *,
                     budget: Budget | Meter | None = None) -> Verdict:
    """Decide ``p ~ q`` syntactically (noisy matching from the first step),
    under the identity interpretation of the free names."""
    meter = resolve_meter(budget)
    names = free_names(p) | free_names(q)
    with _tracing.span("axioms.bisimilar_finite") as sp:
        try:
            flag = _match(p, q, Partition.discrete(names), noisy=True,
                          meter=meter)
        except BudgetExceeded as exc:
            sp.set(verdict="unknown")
            return Verdict.from_exceeded(exc)
        sp.set(verdict=flag)
    return Verdict.of(flag, stats=meter.stats())


def noisy_finite(p: Process, q: Process, *,
                 budget: Budget | Meter | None = None) -> Verdict:
    """Decide ``p ~+ q`` syntactically (strict first step, noisy below)."""
    meter = resolve_meter(budget)
    names = free_names(p) | free_names(q)
    with _tracing.span("axioms.noisy_finite") as sp:
        try:
            flag = _match(p, q, Partition.discrete(names), noisy=False,
                          meter=meter)
        except BudgetExceeded as exc:
            sp.set(verdict="unknown")
            return Verdict.from_exceeded(exc)
        sp.set(verdict=flag)
    return Verdict.of(flag, stats=meter.stats())


# ---------------------------------------------------------------------------
# Matching under a fixed complete condition
# ---------------------------------------------------------------------------

def _extensions(part: Partition, name: Name) -> Iterator[Partition]:
    """All ways a newly received name may relate to the known ones:
    joining any existing block, or fresh (singleton)."""
    blocks = [list(b) for b in part.blocks]
    for i in range(len(blocks)):
        grown = [list(b) for b in blocks]
        grown[i].append(name)
        yield Partition.of(grown)
    yield Partition.of(blocks + [[name]])


def _unify_params(prefix: NFInput, cont: Process,
                  part: Partition) -> tuple[tuple[Name, ...], Process]:
    """Rename the input parameters to canonical symbols outside the
    partition, so both sides of a comparison use identical parameters."""
    canon: list[Name] = []
    taken = set(part.support) | set(prefix.params)
    for i in count():
        if len(canon) == len(prefix.params):
            break
        cand = f"_s{i}"
        if cand not in taken:
            canon.append(cand)
            taken.add(cand)
    mapping = dict(zip(prefix.params, canon))
    return tuple(canon), apply_subst(cont, mapping)


def _unify_binders(prefix: NFOutput, cont: Process,
                   part: Partition) -> tuple[NFOutput, Process]:
    """Rename extrusion binders to canonical symbols outside the partition."""
    if not prefix.binders:
        return prefix, cont
    canon: list[Name] = []
    taken = set(part.support) | set(prefix.args) | {prefix.chan}
    for i in count():
        if len(canon) == len(prefix.binders):
            break
        cand = f"_x{i}"
        if cand not in taken:
            canon.append(cand)
            taken.add(cand)
    mapping = dict(zip(prefix.binders, canon))
    new_prefix = NFOutput(prefix.chan,
                          tuple(mapping.get(a, a) for a in prefix.args),
                          tuple(canon))
    return new_prefix, apply_subst(cont, mapping)


def _output_key(prefix: NFOutput, part: Partition) -> tuple:
    """Comparable label of an output under the partition: representative
    subject and args with binder positions abstracted."""
    rep = part.representative
    idx = {b: i for i, b in enumerate(prefix.binders)}
    return (rep(prefix.chan), tuple(
        ("bound", idx[a]) if a in idx else ("free", rep(a))
        for a in prefix.args))


def _match(p: Process, q: Process, part: Partition, noisy: bool, *,
           meter: Meter) -> bool:
    """Does ``p sigma  R  q sigma`` hold for sigma agreeing with *part*,
    where R is ``~`` (noisy=True) or ``~+`` (noisy=False)?"""
    meter.charge()
    if _OBS.enabled:
        _metrics.inc("axioms.match_calls")
        _metrics.inc("axioms.hnf_expansions", 2)
    part = part.extend_discrete(free_names(p) | free_names(q))
    ls = head_summands(p, part)
    rs = head_summands(q, part)
    return (_match_one_way(ls, rs, p, q, part, noisy, meter)
            and _match_one_way(rs, ls, q, p, part, noisy, meter))


def _match_one_way(mine: list[Summand], their: list[Summand],
                   me_proc: Process, their_proc: Process,
                   part: Partition, noisy: bool, meter: Meter) -> bool:
    rep = part.representative
    their_inputs = [(pre, cont) for pre, cont in their
                    if isinstance(pre, NFInput)]
    their_in_chans = {(rep(pre.chan), len(pre.params))
                      for pre, _ in their_inputs}
    mine_in_chans = {(rep(pre.chan), len(pre.params))
                     for pre, _ in mine if isinstance(pre, NFInput)}

    for prefix, cont in mine:
        if isinstance(prefix, NFTau):
            if not any(isinstance(pre2, NFTau)
                       and _match(cont, cont2, part, noisy=True, meter=meter)
                       for pre2, cont2 in their):
                return False
        elif isinstance(prefix, NFOutput):
            prefix_c, cont_c = _unify_binders(prefix, cont, part)
            key = _output_key(prefix_c, part)
            ext = part.extend_discrete(frozenset(prefix_c.binders))
            ok = False
            for pre2, cont2 in their:
                if not isinstance(pre2, NFOutput):
                    continue
                pre2_c, cont2_c = _unify_binders(pre2, cont2, part)
                if _output_key(pre2_c, part) != key:
                    continue
                if _match(cont_c, cont2_c, ext, noisy=True, meter=meter):
                    ok = True
                    break
            if not ok:
                return False
        else:
            assert isinstance(prefix, NFInput)
            if not _match_input(prefix, cont, their_inputs, their_proc,
                                their_in_chans, part, noisy, meter):
                return False

    # Noisy discard challenges: for each channel the partner listens on but
    # we discard, our staying put must be answered by some reception of
    # theirs (or their own discard, which is trivial).
    if noisy:
        for chan, arity in sorted(their_in_chans - mine_in_chans):
            # We discard `chan` at this arity only if we do not listen on
            # it at all (the dichotomy is per-channel).
            if any(rep(c) == chan for c, _ in mine_in_chans):
                continue
            for values, ext in _value_vectors(part, arity):
                ok = False
                for pre2, cont2 in their_inputs:
                    if rep(pre2.chan) != chan or len(pre2.params) != arity:
                        continue
                    received = apply_subst(cont2,
                                           dict(zip(pre2.params, values)))
                    if _match(me_proc, received, ext, noisy=True,
                              meter=meter):
                        ok = True
                        break
                if not ok:
                    return False
    return True


def _match_input(prefix: NFInput, cont: Process,
                 their_inputs: list[Summand], their_proc: Process,
                 their_in_chans: set[tuple[Name, int]], part: Partition,
                 noisy: bool, meter: Meter) -> bool:
    rep = part.representative
    chan = rep(prefix.chan)
    arity = len(prefix.params)
    params, cont = _unify_params(prefix, cont, part)
    partner_listens = any(rep(c) == chan for c, _ in their_in_chans)
    # Extend the partition over the received parameters, one at a time —
    # every pattern of equalities with known names must be answered
    # (possibly by a different summand each: the (SP) axiom).
    def go(i: int, current: Partition) -> bool:
        if i < len(params):
            return all(go(i + 1, ext)
                       for ext in _extensions(current, params[i]))
        # all parameters interpreted: find an answer
        for pre2, cont2 in their_inputs:
            if rep(pre2.chan) != chan or len(pre2.params) != arity:
                continue
            unified = apply_subst(cont2, dict(zip(pre2.params, params)))
            if _match(cont, unified, current, noisy=True, meter=meter):
                return True
        if noisy and not partner_listens:
            # partner discards: it answers by staying put
            return _match(cont, their_proc, current, noisy=True,
                          meter=meter)
        return False

    return go(0, part)


def _value_vectors(part: Partition, arity: int,
                   ) -> Iterator[tuple[tuple[Name, ...], Partition]]:
    """All interpretations of an arity-long received vector: symbolic
    parameters extended over the partition in every possible way."""
    params: list[Name] = []
    taken = set(part.support)
    for i in count():
        if len(params) == arity:
            break
        cand = f"_s{i}"
        if cand not in taken:
            params.append(cand)
            taken.add(cand)

    def go(i: int, current: Partition) -> Iterator[tuple[tuple[Name, ...], Partition]]:
        if i == len(params):
            yield tuple(params), current
            return
        for ext in _extensions(current, params[i]):
            yield from go(i + 1, ext)

    yield from go(0, part)


def rebuild_sum(summands: list[Summand]) -> Process:
    """Rebuild a core process from head summands.

    Used by tests and benchmarks to state Lemma 16 ("for each p there is an
    equivalent hnf"): the rebuilt sum must be congruent to the original
    under the partition's substitution.
    """
    from ..core.syntax import NIL, Input, Output, Restrict, Sum, Tau

    def one(prefix: NFPrefix, cont: Process) -> Process:
        if isinstance(prefix, NFTau):
            return Tau(cont)
        if isinstance(prefix, NFInput):
            return Input(prefix.chan, prefix.params, cont)
        assert isinstance(prefix, NFOutput)
        body: Process = Output(prefix.chan, prefix.args, cont)
        for b in reversed(prefix.binders):
            body = Restrict(b, body)
        return body

    out: Process = NIL
    for prefix, cont in summands:
        term = one(prefix, cont)
        out = term if out is NIL else Sum(out, term)
    return out
