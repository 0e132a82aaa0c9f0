"""Pins for the searches that drive the bounded explorer ``lts.graph.grow``,
and for CBS bisimilarity.

For pi barbed bisimilarity, acceptance sets, acceptance equality and
the four kernel weak-barb predicates: the answer and the states
charged, at a generous cap and at a tight one.  How a search walks may
change; what it answers and what it charges may not.

CBS bisimilarity no longer drives ``grow``: it is the labelled
checker's product search over the two ether images.  Its rows pin that
search's answers and charges the same way.

``acceptance_equal`` also runs ``traces_upto`` on both sides.  Its pin
is the states charged beyond those two trace explorations (each
measured with its own meter), so it does not depend on whether
``traces_upto`` charges its root.
"""

import pytest

from repro.calculi.cbs import NIL as CO
from repro.calculi.cbs import (
    CbsPar,
    CbsRec,
    CbsSum,
    CbsVar,
    Hear,
    Speak,
    cbs_bisimilar,
)
from repro.calculi.pi import pi_barbed_bisimilar
from repro.core.parser import parse
from repro.engine import Budget
from repro.engine.budget import BudgetExceeded
from repro.equiv.acceptance import (
    acceptance_equal,
    acceptance_sets,
    traces_upto,
)
from repro.lts.weak import (
    has_weak_barb,
    reachable_by_steps,
    weak_barbs,
    weak_step_barbs,
)

GENEROUS, TIGHT = 500, 3

CBS = {
    "noisy-law": (Hear("x", CO), CO),
    "hear-then-speak": (Hear("x", Speak("v")), CO),
    "idempotent-sum": (CbsSum(Speak("v"), Speak("v")), Speak("v")),
    "clock": (CbsRec("X", Speak("t", CbsVar("X"))),
              CbsRec("Y", Speak("t", Speak("t", CbsVar("Y"))))),
    "echo": (CbsPar(Hear("x", Speak("x")), Speak("u", Speak("v"))),
             CbsPar(Speak("u", Speak("v")), Hear("y", Speak("y")))),
    "echo-wrong": (CbsPar(Hear("x", Speak("x")), Speak("u", Speak("v"))),
                   CbsPar(Speak("v", Speak("u")), Hear("y", Speak("y")))),
    "clock-2-3": (CbsRec("X", Speak("t", Speak("t", CbsVar("X")))),
                  CbsRec("Y", Speak("t", Speak("t", Speak("t", CbsVar("Y")))))),
}

PI = {
    "base": ("a<b>", "a<b>.c<d>"),
    "restricted": ("nu a a<b>", "nu a (a<b>.c<d>)"),
    "parallel": ("a<b> | a(x).0", "a<b>.c<d> | a(x).0"),
    "noisy-H": ("a!.b<c> | a? | h<v>.w!",
                "a!.(b<c> + h(x).b<c>) | a? | h<v>.w!"),
    "tau-chain": ("tau.tau.a!", "tau.a!"),
}

ACCEPTANCE = {
    "seq": ("a!.b!", [(), ("a",), ("a", "b")]),
    "internal": ("tau.a! + tau.b!", [(), ("a",)]),
    "section6": ("a!.(b! + c!)", [("a",)]),
    "section6-rhs": ("a!.b! + a!.c!", [("a",)]),
    "par": ("a! | tau.b! | c!.d!", [(), ("a",), ("c", "d")]),
}

ACCEPTANCE_EQUAL = {
    "section6": ("a!.(b! + c!)", "a!.b! + a!.c!"),
    "self": ("a! | tau.b! | c!.d!", "a! | tau.b! | c!.d!"),
    "comm": ("a! | b!", "b! | a!"),
    "trace-diff": ("a!.b!", "a!.c!"),
}

WEAK = {
    "tau-beside-steps": "tau.a! | b!.c!",
    "tau-chain": "tau.tau.a!",
    "output-guard": "b!.a!",
    "private-handshake": "nu x (x! | x?.a!) | tau.b!",
    "nested-taus": "a! | tau.(b! | tau.c!)",
    "unbounded": "rec X(). tau.(a! | X)",
}


def _verdict(v):
    return (v.truth.name, v.reason, v.stats["states"])


def _raw(cap, run):
    """(outcome, answer or trip reason, states charged) of a raw explorer."""
    meter = Budget(max_states=cap).meter()
    try:
        return ("ok", run(meter), meter.states)
    except BudgetExceeded as exc:
        return ("trip", exc.reason, meter.states)


def observe(kind, name, flag, cap):
    if kind == "cbs":
        p, q = CBS[name]
        return _verdict(cbs_bisimilar(p, q, budget=Budget(max_states=cap)))
    if kind == "pi":
        p, q = (parse(s) for s in PI[name])
        return _verdict(pi_barbed_bisimilar(p, q, weak=flag,
                                            budget=Budget(max_states=cap)))
    if kind == "acceptance":
        p = parse(ACCEPTANCE[name][0])
        return _raw(cap, lambda m: sorted(
            sorted(ready) for ready in acceptance_sets(p, flag, budget=m)))
    if kind == "acceptance_equal":
        p, q = (parse(s) for s in ACCEPTANCE_EQUAL[name])
        truth, reason, states = _verdict(
            acceptance_equal(p, q, budget=Budget(max_states=cap)))
        if reason is not None:
            return truth, reason, states
        traces = sum(_raw(None, lambda m: traces_upto(r, 3, budget=m))[2]
                     for r in (p, q))
        return truth, reason, states - traces
    p = parse(WEAK[name])
    if kind == "weak_barbs":
        return _raw(cap, lambda m: sorted(weak_barbs(p, budget=m)))
    if kind == "has_weak_barb":
        return _raw(cap, lambda m: has_weak_barb(p, flag, budget=m))
    if kind == "weak_step_barbs":
        return _raw(cap, lambda m: sorted(weak_step_barbs(p, budget=m)))
    if kind == "reachable_by_steps":
        return _raw(cap, lambda m: [str(s)
                                    for s in reachable_by_steps(p, budget=m)])
    raise ValueError(kind)


def cases():
    for cap in (GENEROUS, TIGHT):
        for name in CBS:
            # True: CBS bisimilarity is the noisy notion, its only one
            yield "cbs", name, True, cap
        for name in PI:
            for weak in (False, True):
                yield "pi", name, weak, cap
        for name, (_, traces) in ACCEPTANCE.items():
            for trace in traces:
                yield "acceptance", name, trace, cap
        for name in ACCEPTANCE_EQUAL:
            yield "acceptance_equal", name, None, cap
        for name in WEAK:
            yield "weak_barbs", name, None, cap
            for chan in "abc":
                yield "has_weak_barb", name, chan, cap
            yield "weak_step_barbs", name, None, cap
            yield "reachable_by_steps", name, None, cap


PINS = {
    ('acceptance', 'internal', (), 3): ('ok', [['a'], ['b']], 3),
    ('acceptance', 'internal', (), 500): ('ok', [['a'], ['b']], 3),
    ('acceptance', 'internal', ('a',), 3): ('trip', 'max-states', 4),
    ('acceptance', 'internal', ('a',), 500): ('ok', [[]], 4),
    ('acceptance', 'par', (), 3): ('ok', [['a', 'b', 'c']], 2),
    ('acceptance', 'par', (), 500): ('ok', [['a', 'b', 'c']], 2),
    ('acceptance', 'par', ('a',), 3): ('trip', 'max-states', 4),
    ('acceptance', 'par', ('a',), 500): ('ok', [['b', 'c']], 4),
    ('acceptance', 'par', ('c', 'd'), 3): ('trip', 'max-states', 4),
    ('acceptance', 'par', ('c', 'd'), 500): ('ok', [['a', 'b']], 6),
    ('acceptance', 'section6', ('a',), 3): ('ok', [['b', 'c']], 2),
    ('acceptance', 'section6', ('a',), 500): ('ok', [['b', 'c']], 2),
    ('acceptance', 'section6-rhs', ('a',), 3): ('ok', [['b'], ['c']], 3),
    ('acceptance', 'section6-rhs', ('a',), 500): ('ok', [['b'], ['c']], 3),
    ('acceptance', 'seq', (), 3): ('ok', [['a']], 1),
    ('acceptance', 'seq', (), 500): ('ok', [['a']], 1),
    ('acceptance', 'seq', ('a',), 3): ('ok', [['b']], 2),
    ('acceptance', 'seq', ('a',), 500): ('ok', [['b']], 2),
    ('acceptance', 'seq', ('a', 'b'), 3): ('ok', [[]], 3),
    ('acceptance', 'seq', ('a', 'b'), 500): ('ok', [[]], 3),
    ('acceptance_equal', 'comm', None, 3): ('UNKNOWN', 'max-states', 4),
    ('acceptance_equal', 'comm', None, 500): ('TRUE', None, 22),
    ('acceptance_equal', 'section6', None, 3): ('UNKNOWN', 'max-states', 4),
    ('acceptance_equal', 'section6', None, 500): ('FALSE', None, 7),
    ('acceptance_equal', 'self', None, 3): ('UNKNOWN', 'max-states', 4),
    ('acceptance_equal', 'self', None, 500): ('TRUE', None, 254),
    ('acceptance_equal', 'trace-diff', None, 3): ('UNKNOWN', 'max-states', 4),
    ('acceptance_equal', 'trace-diff', None, 500): ('FALSE', None, 0),
    ('cbs', 'clock', True, 3): ('TRUE', None, 2),
    ('cbs', 'clock', True, 500): ('TRUE', None, 2),
    ('cbs', 'clock-2-3', True, 3): ('UNKNOWN', 'max-states', 4),
    ('cbs', 'clock-2-3', True, 500): ('TRUE', None, 6),
    ('cbs', 'echo', True, 3): ('TRUE', None, 0),
    ('cbs', 'echo', True, 500): ('TRUE', None, 0),
    ('cbs', 'echo-wrong', True, 3): ('FALSE', None, 1),
    ('cbs', 'echo-wrong', True, 500): ('FALSE', None, 1),
    ('cbs', 'hear-then-speak', True, 3): ('FALSE', None, 2),
    ('cbs', 'hear-then-speak', True, 500): ('FALSE', None, 2),
    ('cbs', 'idempotent-sum', True, 3): ('TRUE', None, 0),
    ('cbs', 'idempotent-sum', True, 500): ('TRUE', None, 0),
    ('cbs', 'noisy-law', True, 3): ('TRUE', None, 1),
    ('cbs', 'noisy-law', True, 500): ('TRUE', None, 1),
    ('has_weak_barb', 'nested-taus', 'a', 3): ('ok', True, 1),
    ('has_weak_barb', 'nested-taus', 'a', 500): ('ok', True, 1),
    ('has_weak_barb', 'nested-taus', 'b', 3): ('ok', True, 2),
    ('has_weak_barb', 'nested-taus', 'b', 500): ('ok', True, 2),
    ('has_weak_barb', 'nested-taus', 'c', 3): ('ok', True, 3),
    ('has_weak_barb', 'nested-taus', 'c', 500): ('ok', True, 3),
    ('has_weak_barb', 'output-guard', 'a', 3): ('ok', False, 1),
    ('has_weak_barb', 'output-guard', 'a', 500): ('ok', False, 1),
    ('has_weak_barb', 'output-guard', 'b', 3): ('ok', True, 1),
    ('has_weak_barb', 'output-guard', 'b', 500): ('ok', True, 1),
    ('has_weak_barb', 'output-guard', 'c', 3): ('ok', False, 1),
    ('has_weak_barb', 'output-guard', 'c', 500): ('ok', False, 1),
    ('has_weak_barb', 'private-handshake', 'a', 3): ('ok', True, 3),
    ('has_weak_barb', 'private-handshake', 'a', 500): ('ok', True, 3),
    ('has_weak_barb', 'private-handshake', 'b', 3): ('trip', 'max-states', 4),
    ('has_weak_barb', 'private-handshake', 'b', 500): ('ok', True, 4),
    ('has_weak_barb', 'private-handshake', 'c', 3): ('trip', 'max-states', 4),
    ('has_weak_barb', 'private-handshake', 'c', 500): ('ok', False, 4),
    ('has_weak_barb', 'tau-beside-steps', 'a', 3): ('ok', True, 2),
    ('has_weak_barb', 'tau-beside-steps', 'a', 500): ('ok', True, 2),
    ('has_weak_barb', 'tau-beside-steps', 'b', 3): ('ok', True, 1),
    ('has_weak_barb', 'tau-beside-steps', 'b', 500): ('ok', True, 1),
    ('has_weak_barb', 'tau-beside-steps', 'c', 3): ('ok', False, 2),
    ('has_weak_barb', 'tau-beside-steps', 'c', 500): ('ok', False, 2),
    ('has_weak_barb', 'tau-chain', 'a', 3): ('ok', True, 3),
    ('has_weak_barb', 'tau-chain', 'a', 500): ('ok', True, 3),
    ('has_weak_barb', 'tau-chain', 'b', 3): ('ok', False, 3),
    ('has_weak_barb', 'tau-chain', 'b', 500): ('ok', False, 3),
    ('has_weak_barb', 'tau-chain', 'c', 3): ('ok', False, 3),
    ('has_weak_barb', 'tau-chain', 'c', 500): ('ok', False, 3),
    ('has_weak_barb', 'unbounded', 'a', 3): ('ok', True, 2),
    ('has_weak_barb', 'unbounded', 'a', 500): ('ok', True, 2),
    ('has_weak_barb', 'unbounded', 'b', 3): ('trip', 'max-states', 4),
    ('has_weak_barb', 'unbounded', 'b', 500): ('trip', 'max-states', 501),
    ('has_weak_barb', 'unbounded', 'c', 3): ('trip', 'max-states', 4),
    ('has_weak_barb', 'unbounded', 'c', 500): ('trip', 'max-states', 501),
    ('pi', 'base', False, 3): ('TRUE', None, 2),
    ('pi', 'base', False, 500): ('TRUE', None, 2),
    ('pi', 'base', True, 3): ('TRUE', None, 2),
    ('pi', 'base', True, 500): ('TRUE', None, 2),
    ('pi', 'noisy-H', False, 3): ('UNKNOWN', 'max-states', 4),
    ('pi', 'noisy-H', False, 500): ('FALSE', None, 5),
    ('pi', 'noisy-H', True, 3): ('UNKNOWN', 'max-states', 4),
    ('pi', 'noisy-H', True, 500): ('FALSE', None, 5),
    ('pi', 'parallel', False, 3): ('UNKNOWN', 'max-states', 4),
    ('pi', 'parallel', False, 500): ('FALSE', None, 4),
    ('pi', 'parallel', True, 3): ('UNKNOWN', 'max-states', 4),
    ('pi', 'parallel', True, 500): ('FALSE', None, 4),
    ('pi', 'restricted', False, 3): ('TRUE', None, 2),
    ('pi', 'restricted', False, 500): ('TRUE', None, 2),
    ('pi', 'restricted', True, 3): ('TRUE', None, 2),
    ('pi', 'restricted', True, 500): ('TRUE', None, 2),
    ('pi', 'tau-chain', False, 3): ('FALSE', None, 3),
    ('pi', 'tau-chain', False, 500): ('FALSE', None, 3),
    ('pi', 'tau-chain', True, 3): ('TRUE', None, 3),
    ('pi', 'tau-chain', True, 500): ('TRUE', None, 3),
    ('reachable_by_steps', 'nested-taus', None, 3): ('trip', 'max-states', 4),
    ('reachable_by_steps', 'nested-taus', None, 500): ('ok',
                                                       ['a! | tau.(b! | tau.c!)',
                                                        '0 | tau.(b! | tau.c!)',
                                                        'a! | b! | tau.c!',
                                                        '0 | b! | tau.c!',
                                                        'a! | 0 | tau.c!',
                                                        'a! | b! | c!',
                                                        '0 | 0 | tau.c!',
                                                        '0 | b! | c!',
                                                        'a! | 0 | c!',
                                                        'a! | b! | 0',
                                                        '0 | 0 | c!',
                                                        '0 | b! | 0',
                                                        'a! | 0 | 0',
                                                        '0 | 0 | 0'],
                                                       14),
    ('reachable_by_steps', 'output-guard', None, 3): ('ok', ['b!.a!', 'a!', '0'], 3),
    ('reachable_by_steps', 'output-guard', None, 500): ('ok', ['b!.a!', 'a!', '0'], 3),
    ('reachable_by_steps', 'private-handshake', None, 3): ('trip', 'max-states', 4),
    ('reachable_by_steps', 'private-handshake', None, 500): ('ok',
                                                             ['nu _v0 (_v0! | _v0?.a!) | tau.b!',
                                                              'nu _v0 (0 | a!) | tau.b!',
                                                              'nu _v0 (_v0! | _v0?.a!) | b!',
                                                              'nu _v0 (0 | 0) | tau.b!',
                                                              'nu _v0 (0 | a!) | b!',
                                                              'nu _v0 (_v0! | _v0?.a!) | 0',
                                                              'nu _v0 (0 | 0) | b!',
                                                              'nu _v0 (0 | a!) | 0',
                                                              'nu _v0 (0 | 0) | 0'],
                                                             9),
    ('reachable_by_steps', 'tau-beside-steps', None, 3): ('trip', 'max-states', 4),
    ('reachable_by_steps', 'tau-beside-steps', None, 500): ('ok',
                                                            ['tau.a! | b!.c!',
                                                             'a! | b!.c!',
                                                             'tau.a! | c!',
                                                             '0 | b!.c!',
                                                             'a! | c!',
                                                             'tau.a! | 0',
                                                             '0 | c!',
                                                             'a! | 0',
                                                             '0 | 0'],
                                                            9),
    ('reachable_by_steps', 'tau-chain', None, 3): ('trip', 'max-states', 4),
    ('reachable_by_steps', 'tau-chain', None, 500): ('ok', ['tau.tau.a!', 'tau.a!', 'a!', '0'], 4),
    ('reachable_by_steps', 'unbounded', None, 3): ('trip', 'max-states', 4),
    ('reachable_by_steps', 'unbounded', None, 500): ('trip', 'max-states', 501),
    ('weak_barbs', 'nested-taus', None, 3): ('ok', ['a', 'b', 'c'], 3),
    ('weak_barbs', 'nested-taus', None, 500): ('ok', ['a', 'b', 'c'], 3),
    ('weak_barbs', 'output-guard', None, 3): ('ok', ['b'], 1),
    ('weak_barbs', 'output-guard', None, 500): ('ok', ['b'], 1),
    ('weak_barbs', 'private-handshake', None, 3): ('trip', 'max-states', 4),
    ('weak_barbs', 'private-handshake', None, 500): ('ok', ['a', 'b'], 4),
    ('weak_barbs', 'tau-beside-steps', None, 3): ('ok', ['a', 'b'], 2),
    ('weak_barbs', 'tau-beside-steps', None, 500): ('ok', ['a', 'b'], 2),
    ('weak_barbs', 'tau-chain', None, 3): ('ok', ['a'], 3),
    ('weak_barbs', 'tau-chain', None, 500): ('ok', ['a'], 3),
    ('weak_barbs', 'unbounded', None, 3): ('trip', 'max-states', 4),
    ('weak_barbs', 'unbounded', None, 500): ('trip', 'max-states', 501),
    ('weak_step_barbs', 'nested-taus', None, 3): ('trip', 'max-states', 4),
    ('weak_step_barbs', 'nested-taus', None, 500): ('ok', ['a', 'b', 'c'], 14),
    ('weak_step_barbs', 'output-guard', None, 3): ('ok', ['a', 'b'], 3),
    ('weak_step_barbs', 'output-guard', None, 500): ('ok', ['a', 'b'], 3),
    ('weak_step_barbs', 'private-handshake', None, 3): ('trip', 'max-states', 4),
    ('weak_step_barbs', 'private-handshake', None, 500): ('ok', ['a', 'b'], 9),
    ('weak_step_barbs', 'tau-beside-steps', None, 3): ('trip', 'max-states', 4),
    ('weak_step_barbs', 'tau-beside-steps', None, 500): ('ok', ['a', 'b', 'c'], 9),
    ('weak_step_barbs', 'tau-chain', None, 3): ('trip', 'max-states', 4),
    ('weak_step_barbs', 'tau-chain', None, 500): ('ok', ['a'], 4),
    ('weak_step_barbs', 'unbounded', None, 3): ('trip', 'max-states', 4),
    ('weak_step_barbs', 'unbounded', None, 500): ('trip', 'max-states', 501),
}


def _case_id(case):
    kind, name, flag, cap = case
    if isinstance(flag, tuple):
        flag = ".".join(flag) or "eps"
    return f"{kind}-{name}-{flag}-{cap}"


@pytest.mark.parametrize("case", list(cases()), ids=_case_id)
def test_pinned(case):
    assert observe(*case) == PINS[case]


def test_cbs_deadline_after_exploration_is_unknown():
    # echo charges no state at all, so no charge ever polls the clock:
    # the product search's entry poll is what notices the late deadline
    reads = iter([0.0])  # the meter's start; every later read is late
    budget = Budget(deadline=1.0, clock=lambda: next(reads, 10.0))
    p, q = CBS["echo"]
    v = cbs_bisimilar(p, q, budget=budget)
    assert v.is_unknown and v.reason == "deadline"
