"""The built-in lint passes (BP codes) over bpi process terms.

Every pass is a **pure syntactic analysis**: it walks the term (tracking
occurrence paths in ``children()`` order), creates no new process nodes
and unfolds no recursion — so linting never grows the intern table or
perturbs the kernel's caches (property-tested in ``tests/test_lint.py``).

Catalogue
---------
=======  ========  ===========================================================
code     severity  meaning
=======  ========  ===========================================================
BP101    error     recursion variable occurs unguarded in its ``rec`` body
                   (breaks the guardedness side condition of Tables 6-8)
BP102    error     sort/arity inconsistency (a channel used at two shapes
                   breaks the input/discard dichotomy of Table 2)
BP201    warning   deaf broadcast: output on a restricted channel that no
                   listener can ever hear (legal but silent under the noisy
                   semantics — the Section 6 ``a.(b+c)`` vs ``a.b+a.c`` trap)
BP202    warning   statically dead branch: a match between distinct
                   restricted names (or ``[x=x]`` with an else-branch)
BP301    warning   tau-divergence risk: every re-entry into the recursion is
                   guarded only by ``tau`` prefixes
BP302    info      unused restriction / ``nu``-or-input binder shadowing an
                   enclosing binder
=======  ========  ===========================================================

A pass is a generator ``fn(term) -> Iterator[(path, message)]``; the
engine (:mod:`repro.lint.engine`) stamps code/severity/span on top.
Register new passes with :func:`lint_pass`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..core.freenames import free_names, unguarded_occurrences
from ..core.names import Name
from ..core.sorts import SortError, infer_sorts
from ..core.syntax import (
    NIL,
    Ident,
    Input,
    Match,
    Output,
    Par,
    Process,
    Rec,
    Restrict,
    Sum,
    Tau,
)

#: Occurrence path.
Path = tuple[int, ...]

#: A pass body: yields (occurrence path, message) findings.
PassFn = Callable[[Process], Iterable[tuple[Path, str]]]

# Severity names are resolved lazily by the engine to avoid an import
# cycle; passes declare them as strings.
_SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class LintPass:
    """A registered pass: stable code, one severity, a title, the body."""

    code: str
    title: str
    severity: str
    fn: PassFn

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(f"severity must be one of {_SEVERITIES}")


#: The registry, code -> pass, in registration (== code) order.
PASS_REGISTRY: dict[str, LintPass] = {}


def lint_pass(code: str, title: str,
              severity: str) -> Callable[[PassFn], PassFn]:
    """Register a pass under *code*; codes must be unique."""

    def register(fn: PassFn) -> PassFn:
        if code in PASS_REGISTRY:
            raise ValueError(f"duplicate lint pass code {code!r}")
        PASS_REGISTRY[code] = LintPass(code, title, severity, fn)
        return fn

    return register


def _indexed_children(q: Process) -> Iterator[tuple[int, Process]]:
    return enumerate(q.children())


# ---------------------------------------------------------------------------
# BP101 — unguarded recursion
# ---------------------------------------------------------------------------

@lint_pass("BP101", "unguarded recursion", "error")
def bp101_unguarded_recursion(term: Process) -> Iterator[tuple[Path, str]]:
    """A ``rec``-bound identifier occurring with no prefix above it.

    The paper's axiomatisation (Tables 6-8) and the termination of the
    discard/LTS rules (10)/(11) both require every recursion variable to
    occur *guarded* — strictly underneath a prefix — in its body.
    """

    for path, ident in unguarded_occurrences(term):
        yield path, (
            f"recursion variable {ident!r} occurs unguarded in its "
            f"rec body; the axiomatisation's side condition "
            f"(Tables 6-8) requires it strictly under a prefix")


# ---------------------------------------------------------------------------
# BP102 — sort / arity inconsistency
# ---------------------------------------------------------------------------

@lint_pass("BP102", "sort inconsistency", "error")
def bp102_sort_inconsistency(term: Process) -> Iterator[tuple[Path, str]]:
    """The term is ill-sorted (a channel carries tuples of two shapes).

    Mixing arities on one channel breaks the input/discard dichotomy of
    Table 2: a listener at the wrong arity can neither receive nor
    discard.  Delegates to :func:`repro.core.sorts.infer_sorts`, which
    positions the failure at the first inconsistent occurrence.
    """
    try:
        infer_sorts(term)
    except SortError as exc:
        yield (exc.path or ()), f"ill-sorted term: {exc}"


# ---------------------------------------------------------------------------
# BP201 — deaf broadcast
# ---------------------------------------------------------------------------

class _DeafScan:
    """Usage summary of one restricted name inside its scope."""

    __slots__ = ("outputs", "heard", "escapes")

    def __init__(self) -> None:
        self.outputs: list[Path] = []   # x<...> occurrences (x as subject)
        self.heard = False              # x(...) listener in scope
        self.escapes = False            # x as payload / match / rec argument


def _scan_restricted(q: Process, x: Name, path: Path, acc: _DeafScan) -> None:
    """Collect uses of restricted *x* within its scope (stops at shadows)."""
    if isinstance(q, Input):
        if q.chan == x:
            acc.heard = True
        if x in q.params:  # rebound below this input
            return
        _scan_restricted(q.cont, x, path + (0,), acc)
    elif isinstance(q, Output):
        if q.chan == x:
            acc.outputs.append(path)
        if x in q.args:
            acc.escapes = True
        _scan_restricted(q.cont, x, path + (0,), acc)
    elif isinstance(q, Restrict):
        if q.name == x:  # inner nu shadows
            return
        _scan_restricted(q.body, x, path + (0,), acc)
    elif isinstance(q, Match):
        if x in (q.left, q.right):
            # comparing against x: a received copy of x may flow here, so
            # a listener could appear dynamically — stay quiet.
            acc.escapes = True
        _scan_restricted(q.then, x, path + (0,), acc)
        _scan_restricted(q.orelse, x, path + (1,), acc)
    elif isinstance(q, (Sum, Par)):
        _scan_restricted(q.left, x, path + (0,), acc)
        _scan_restricted(q.right, x, path + (1,), acc)
    elif isinstance(q, Tau):
        _scan_restricted(q.cont, x, path + (0,), acc)
    elif isinstance(q, Ident):
        if x in q.args:
            acc.escapes = True
    elif isinstance(q, Rec):
        if x in q.args:
            acc.escapes = True
        if x in q.params:  # param rebinds x inside the body
            return
        _scan_restricted(q.body, x, path + (0,), acc)
    # Nil: nothing.


@lint_pass("BP201", "deaf broadcast", "warning")
def bp201_deaf_broadcast(term: Process) -> Iterator[tuple[Path, str]]:
    """An output on a restricted channel that nothing can ever hear.

    Under the noisy broadcast semantics a send fires even with zero
    listeners (Section 6's ``a.(b+c)`` vs ``a.b+a.c`` observation), so
    the term is *legal* — but the broadcast is unobservable forever when
    the restricted subject never escapes its scope and no input on it
    exists in scope.  Almost always a modelling bug.

    The syntactic scan treats any escape (payload, match operand,
    recursion argument) as "a listener could appear dynamically" and
    stays quiet.  The flow analysis (:mod:`repro.flow`) cross-checks
    that heuristic: when the may-extrude set proves the name never
    actually reaches the environment and nothing may ever hear it, the
    broadcast is deaf after all and the pass fires anyway.
    """

    def flow_confirms_deaf(path: Path) -> bool:
        # Lazy import: repro.lint must stay importable without the flow
        # layer (and without triggering its registration order).
        from ..flow.analysis import flow_analysis
        analysis = flow_analysis(term, mode="open")
        if analysis.incomplete:
            return False
        for info in analysis.restrictions:
            if info.path == path:
                return not info.extruded and not info.may_be_heard
        return False

    def walk(q: Process, path: Path) -> Iterator[tuple[Path, str]]:
        if isinstance(q, Restrict):
            acc = _DeafScan()
            _scan_restricted(q.body, q.name, path + (0,), acc)
            if acc.outputs and not acc.heard:
                if not acc.escapes:
                    for opath in acc.outputs:
                        yield opath, (
                            f"deaf broadcast: output on restricted channel "
                            f"{q.name!r} can never be heard (no listener in "
                            f"scope and the name never escapes); the noisy "
                            f"semantics lets it fire silently")
                elif flow_confirms_deaf(path):
                    for opath in acc.outputs:
                        yield opath, (
                            f"deaf broadcast: output on restricted channel "
                            f"{q.name!r} can never be heard (the name "
                            f"appears to escape, but the flow analysis "
                            f"proves it is never extruded and nothing may "
                            f"listen); the noisy semantics lets it fire "
                            f"silently")
        for i, c in _indexed_children(q):
            yield from walk(c, path + (i,))

    yield from walk(term, ())


# ---------------------------------------------------------------------------
# BP202 — statically dead branch
# ---------------------------------------------------------------------------

@lint_pass("BP202", "dead match branch", "warning")
def bp202_dead_branch(term: Process) -> Iterator[tuple[Path, str]]:
    """A match branch no execution can ever take.

    ``[x=y]`` between names bound by two *distinct* restrictions can
    never succeed — no substitution identifies two different restricted
    names — so the then-branch is dead; dually ``[x=x]`` never fails, so
    a non-nil else-branch is dead.
    """

    def walk(q: Process, nu_of: dict[Name, Path],
             path: Path) -> Iterator[tuple[Path, str]]:
        if isinstance(q, Match):
            if q.left == q.right:
                if q.orelse is not NIL:
                    yield path + (1,), (
                        f"dead else-branch: match [{q.left}={q.right}] "
                        f"always succeeds")
            else:
                lb, rb = nu_of.get(q.left), nu_of.get(q.right)
                if lb is not None and rb is not None and lb != rb:
                    if q.then is not NIL:
                        yield path + (0,), (
                            f"dead then-branch: {q.left!r} and {q.right!r} "
                            f"are distinct restricted names, so the match "
                            f"[{q.left}={q.right}] can never succeed")
            yield from walk(q.then, nu_of, path + (0,))
            yield from walk(q.orelse, nu_of, path + (1,))
            return
        if isinstance(q, Restrict):
            yield from walk(q.body, {**nu_of, q.name: path}, path + (0,))
            return
        if isinstance(q, Input):
            # received values may *be* some restricted name (extrusion):
            # params are unknowns, not fresh nus.
            inner = {k: v for k, v in nu_of.items() if k not in q.params}
            yield from walk(q.cont, inner, path + (0,))
            return
        if isinstance(q, Rec):
            inner = {k: v for k, v in nu_of.items() if k not in q.params}
            yield from walk(q.body, inner, path + (0,))
            return
        for i, c in _indexed_children(q):
            yield from walk(c, nu_of, path + (i,))

    yield from walk(term, {}, ())


# ---------------------------------------------------------------------------
# BP301 — tau-divergence risk
# ---------------------------------------------------------------------------

#: Guard-chain states for the BP301 scan: no prefix above the occurrence
#: yet (BP101's domain, ignored here), only tau prefixes, or at least one
#: visible (input/output) prefix.
_UNGUARDED, _TAU_ONLY, _VISIBLE = 0, 1, 2


def _rec_reentry(body: Process, ident: str, guard: int,
                 found: list[bool]) -> None:
    """found = [any guarded occurrence seen, all of them tau-only]."""
    if isinstance(body, Ident):
        if body.ident == ident and guard != _UNGUARDED:
            found[0] = True
            if guard != _TAU_ONLY:
                found[1] = False
        return
    if isinstance(body, Tau):
        _rec_reentry(body.cont, ident, max(guard, _TAU_ONLY), found)
        return
    if isinstance(body, (Input, Output)):
        _rec_reentry(body.cont, ident, _VISIBLE, found)
        return
    if isinstance(body, Rec):
        if body.ident == ident:  # inner rec shadows the identifier
            return
        _rec_reentry(body.body, ident, guard, found)
        return
    for c in body.children():
        _rec_reentry(c, ident, guard, found)


@lint_pass("BP301", "tau-divergence risk", "warning")
def bp301_tau_divergence(term: Process) -> Iterator[tuple[Path, str]]:
    """A recursion whose every unfolding path is tau-only.

    When every occurrence of the recursion variable sits under nothing
    but ``tau`` prefixes, each unfolding re-enters the loop without any
    observable action: the process can diverge silently.  Weak
    equivalences quotient such loops away, but simulators and bounded
    explorers will spin on them.
    """

    def walk(q: Process, path: Path) -> Iterator[tuple[Path, str]]:
        if isinstance(q, Rec):
            found = [False, True]
            _rec_reentry(q.body, q.ident, _UNGUARDED, found)
            if found[0] and found[1]:
                yield path, (
                    f"tau-divergence risk: every re-entry into rec "
                    f"{q.ident!r} is guarded only by tau prefixes, so the "
                    f"recursion can unfold forever without a visible action")
        for i, c in _indexed_children(q):
            yield from walk(c, path + (i,))

    yield from walk(term, ())


# ---------------------------------------------------------------------------
# BP302 — unused restriction / shadowed binder
# ---------------------------------------------------------------------------

@lint_pass("BP302", "unused restriction / shadowed binder", "info")
def bp302_binder_hygiene(term: Process) -> Iterator[tuple[Path, str]]:
    """Binder hygiene: restrictions that bind nothing, binders that shadow.

    ``nu x p`` with ``x`` not free in ``p`` creates a channel nobody can
    ever use.  For shadowing, only the genuinely suspicious shapes are
    flagged: a ``nu`` reusing any enclosing binder's name (a *new*
    private channel silently cuts off the old one), and an input
    parameter reusing a **restricted** name (the received value hides a
    private channel).  Re-receiving into the same parameter name in a
    sequential protocol, and ``rec`` parameters named after their
    instantiating channels, are idiomatic — the paper's own terms do
    both — so neither is reported.
    """

    def walk(q: Process, bound: frozenset[Name], restricted: frozenset[Name],
             path: Path) -> Iterator[tuple[Path, str]]:
        if isinstance(q, Restrict):
            if q.name not in free_names(q.body):
                yield path, (
                    f"unused restriction: nu {q.name!r} binds a channel "
                    f"that does not occur in its scope")
            if q.name in bound:
                yield path, (
                    f"shadowed binder: nu {q.name!r} reuses the name of an "
                    f"enclosing binder; the outer {q.name!r} is unreachable "
                    f"below this point")
            yield from walk(q.body, bound | {q.name}, restricted | {q.name},
                            path + (0,))
            return
        if isinstance(q, Input):
            for x in q.params:
                if x in restricted:
                    yield path, (
                        f"shadowed binder: input parameter {x!r} hides the "
                        f"restricted channel {x!r} bound by an enclosing nu")
            params = frozenset(q.params)
            yield from walk(q.cont, bound | params, restricted - params,
                            path + (0,))
            return
        if isinstance(q, Rec):
            params = frozenset(q.params)
            yield from walk(q.body, bound | params, restricted - params,
                            path + (0,))
            return
        for i, c in _indexed_children(q):
            yield from walk(c, bound, restricted, path + (i,))

    yield from walk(term, frozenset(), frozenset(), ())
