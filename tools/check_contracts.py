#!/usr/bin/env python3
"""Architectural contract checker for the two-layer engine design.

The engine layering (see docs/engine.md) splits bounded analyses in two:

* **raw explorers** (``lts/``, ``equiv/``, ``axioms/`` builders) run under
  a :class:`~repro.engine.budget.Meter` and *re-raise*
  ``BudgetExceeded`` after attaching partial results — they never decide;
* **verdict-level checkers** (functions annotated ``-> Verdict``) catch
  the trip and degrade to a three-valued ``UNKNOWN`` — the exception must
  never escape to callers of the stable API.

Both halves are easy to get wrong in review (a ``pass`` in a handler, a
new checker calling an explorer outside ``try``), so this script walks
the AST of ``src/repro`` and enforces:

Rule A (``swallowed-trip``)
    Every ``except BudgetExceeded`` handler either contains a ``raise``
    or returns only ``Verdict.of(...)`` / ``Verdict.from_exceeded(...)``
    values.  Anything else silently converts a truncated search into a
    definite-looking answer.

Rule B (``unguarded-explorer``)
    A function annotated ``-> Verdict`` that calls a known raw explorer
    must do so inside a ``try`` with a ``BudgetExceeded`` handler —
    otherwise the exception escapes the verdict layer.

Rule C (``worker-not-verdict``)
    The verdict-level function every request runs (:data:`VERDICT_WORKERS`,
    ``store/batch.py``'s ``evaluate_request``, which each process-pool
    worker of ``repro batch`` and each ``repro serve`` line call) must
    exist and be annotated ``-> Verdict``.  A ``BudgetExceeded`` leaking
    from it would answer a tripped budget with an error, or a broken
    future across the ``concurrent.futures`` process boundary, instead
    of an UNKNOWN verdict — so the function itself must be verdict-level
    (the annotation also opts it into Rules A/B).

Rule E (``direct-semantics``)
    The Table 2/3 kernel (``core.semantics``, ``core.discard``) is
    reached through the backends.  Only ``core/`` itself and
    ``calculi/backend.py``, which binds the kernel's ``Table3`` class to
    the ``CalculusBackend`` protocol, may import it — directly or
    through the names ``core/__init__`` re-exports; the lossy and
    wireless backends inherit the rules from there.  Everything else
    resolves a ``CalculusBackend`` through ``repro.calculi.registry``,
    so the lossy and wireless semantics stay pluggable instead of being
    silently bypassed.

Rule F (``flow-*``)
    The flow pre-solver (``flow/presolve.py``) is a *may*-analysis: it
    can prove a barb unreachable or an invariant true, never the
    reverse.  Three sub-checks keep that one-sidedness structural:
    (``flow-verdict``) modules under ``flow/`` never reference
    ``Verdict`` — the abstraction returns typed ``FlowEvidence`` and the
    verdict layer decides; (``flow-presolve``) calls to the presolvers
    (:data:`FLOW_PRESOLVERS`) outside ``flow/`` appear only inside
    ``-> Verdict`` functions, so flow answers always surface through the
    three-valued API (a function named in :data:`FLOW_PRESOLVE_EXEMPT`
    is excused, with the reason it stays one-sided); (``flow-polarity``) a refuter's result never feeds
    ``Verdict.of(True, ...)`` and the prover's never feeds
    ``Verdict.of(False, ...)`` — flow evidence may only ever strengthen
    the definite-FALSE-reachable / definite-TRUE-invariant side, never
    fabricate reachability.

Rule G (``memo-mechanism``)
    No ``functools.lru_cache`` / ``functools.cache`` under ``src/repro``,
    as a decorator, a call or an import.  Node results are memoized on
    the interned node's slots (``core/syntax.py``'s
    ``_NODE_CACHE_SLOTS``) or in a backend's per-instance memo tables
    (``CalculusBackend.memo``), all of which ``clear_caches()`` resets;
    a function-level cache would be one more mechanism for that switch
    to miss, and its C wrapper deepens the C stack of every recursion
    through it.

The facades ``api.py`` and ``__main__.py`` (:data:`EXEMPT_FILES`)
translate trips into their own vocabulary, so Rules A and B skip them;
every other rule checks them.

Run ``python tools/check_contracts.py`` (CI does); exit status 1 when a
violation is found.  ``tests/test_contracts.py`` feeds the checker both
the live tree and synthetic offenders.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path

#: Exception names whose handlers the layering contract governs
#: (StateSpaceExceeded is the pre-1.1 alias of BudgetExceeded).
BUDGET_EXCEPTIONS = frozenset({"BudgetExceeded", "StateSpaceExceeded"})

#: Raw explorer entry points: documented to raise BudgetExceeded (with
#: ``exc.partial`` attached) rather than return a degraded result.
RAW_EXPLORERS = frozenset({
    "grow",
    "build_step_lts",
    "build_full_lts",
    "build_reduction_graph",
    "solve_game",
    "explore_product",
    "coarsest_partition",
    "coarsest_partition_labelled",
    "reachable_states",
    "find_quiescent",
    "output_traces",
    "traces_upto",
    "acceptance_sets",
    "weak_barbs",
    "has_weak_barb",
    "weak_step_barbs",
    "reachable_by_steps",
})

#: Facade modules translating trips into their own vocabulary
#: (``Exploration(complete=False)``, CLI exit codes) instead of Verdicts:
#: exempt from Rules A and B only, every other rule checks them.
EXEMPT_FILES = frozenset({"api.py", "__main__.py"})

#: The verdict-level functions pool workers run, by file name: they run
#: on the far side of a ``concurrent.futures`` process boundary and must
#: be defined and annotated ``-> Verdict``, so a tripped budget ships
#: back as an UNKNOWN answer rather than an exception.
VERDICT_WORKERS: dict[str, frozenset[str]] = {
    "batch.py": frozenset({"evaluate_request"}),
}

#: Semantic-kernel modules (Rule E): the Table 2/3 implementation.
SEMANTIC_MODULES = frozenset({"semantics", "discard"})

#: Names ``core/__init__.py`` re-exports from the semantic kernel —
#: pulling them from ``repro.core`` is the same Rule E bypass.
SEMANTIC_NAMES = frozenset({
    "discards", "listening_channels",
    "check_sorts", "input_capabilities", "input_continuations",
    "step_transitions", "transitions",
})

#: File names under ``calculi/`` allowed to import the kernel directly:
#: the module that binds its ``Table3`` class to the backend protocol.
SEMANTIC_IMPORTERS = frozenset({"backend.py"})

#: ``functools`` memoizing decorators (Rule G).
FUNCTOOLS_CACHES = frozenset({"lru_cache", "cache"})

#: Flow pre-solver entry points (Rule F): one-sided provers whose
#: results may only surface through the verdict layer.
FLOW_PRESOLVERS = frozenset({"flow_refutes_barb", "flow_proves_invariant"})

#: Functions, by ``(file name, function name)``, allowed to call a flow
#: presolver outside a ``-> Verdict`` function (Rule F ``flow-presolve``),
#: each with the reason it stays one-sided.
FLOW_PRESOLVE_EXEMPT: dict[tuple[str, str], str] = {
    ("__main__.py", "_cmd_flow"):
        "the `repro flow --barb` diagnostic prints the refuter's evidence "
        "or 'may be reachable'; it never states that a barb is reachable",
}

#: The only ``Verdict.of(<bool>, ...)`` polarity each presolver's result
#: may feed: the barb refuter proves FALSE-reachable, the invariant
#: prover proves TRUE-invariant.  The opposite direction would let the
#: abstraction fabricate reachability / refute an invariant it cannot see.
FLOW_POLARITY: dict[str, bool] = {
    "flow_refutes_barb": False,
    "flow_proves_invariant": True,
}


@dataclass(frozen=True)
class Violation:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _exception_names(node: ast.expr | None) -> set[str]:
    """The names an ``except <expr>`` clause catches (best effort)."""
    if node is None:
        return set()
    if isinstance(node, ast.Tuple):
        out: set[str] = set()
        for elt in node.elts:
            out |= _exception_names(elt)
        return out
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _catches_budget(handler: ast.ExceptHandler) -> bool:
    return bool(_exception_names(handler.type) & BUDGET_EXCEPTIONS)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _walk_same_scope(nodes: list[ast.stmt]) -> "list[ast.AST]":
    """All AST nodes under *nodes*, not descending into nested scopes."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, _SCOPES):
            continue  # the nested scope's body runs later, elsewhere
        stack.extend(ast.iter_child_nodes(node))
    return out


def _is_verdict_call(node: ast.expr | None) -> bool:
    """``Verdict.of(...)`` / ``Verdict.from_exceeded(...)`` (any method)."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "Verdict")


def _check_handler(handler: ast.ExceptHandler, path: str,
                   violations: list[Violation]) -> None:
    """Rule A: the handler must re-raise or return only Verdicts."""
    body = _walk_same_scope(handler.body)
    if any(isinstance(n, ast.Raise) for n in body):
        return
    returns = [n for n in body if isinstance(n, ast.Return)]
    if returns and all(_is_verdict_call(r.value) for r in returns):
        return
    caught = " | ".join(sorted(_exception_names(handler.type)
                               & BUDGET_EXCEPTIONS))
    violations.append(Violation(
        path, handler.lineno, "swallowed-trip",
        f"`except {caught}` neither re-raises nor returns a Verdict; "
        f"a truncated search must surface as UNKNOWN or propagate"))


def _returns_verdict(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    ann = fn.returns
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.strip().strip('"\'') == "Verdict"
    return isinstance(ann, ast.Name) and ann.id == "Verdict"


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _own_expressions(stmt: ast.stmt) -> list[ast.AST]:
    """The expression nodes evaluated by *stmt* itself — call arguments,
    tests, with-items — stopping at nested statements and scopes."""
    barrier = (ast.stmt, *_SCOPES)
    out: list[ast.AST] = []
    stack = [c for c in ast.iter_child_nodes(stmt)
             if not isinstance(c, barrier)]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(c for c in ast.iter_child_nodes(node)
                     if not isinstance(c, barrier))
    return out


def _check_verdict_fn(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                      path: str, violations: list[Violation]) -> None:
    """Rule B: raw explorer calls need a BudgetExceeded handler above."""

    def scan(stmts: list[ast.stmt], protected: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, _SCOPES):
                continue  # deferred execution; checked when it runs
            if isinstance(stmt, ast.Try):
                guarded = protected or any(_catches_budget(h)
                                           for h in stmt.handlers)
                scan(stmt.body, guarded)
                for h in stmt.handlers:
                    scan(h.body, protected)
                # else/finally run outside the handlers' reach
                scan(stmt.orelse, protected)
                scan(stmt.finalbody, protected)
                continue
            if not protected:
                for node in _own_expressions(stmt):
                    if (isinstance(node, ast.Call)
                            and _call_name(node) in RAW_EXPLORERS):
                        violations.append(Violation(
                            path, node.lineno, "unguarded-explorer",
                            f"`{fn.name}` returns Verdict but calls raw "
                            f"explorer `{_call_name(node)}` outside a "
                            f"BudgetExceeded handler"))
            # recurse into nested suites (if/for/while/with/match bodies)
            for field in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, field, None)
                if sub:
                    scan(sub, protected)
            for case in getattr(stmt, "cases", ()):
                scan(case.body, protected)

    scan(fn.body, False)


def check_source(source: str, path: str = "<string>") -> list[Violation]:
    """Check one module's source; returns the violations found."""
    violations: list[Violation] = []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        violations.append(Violation(path, exc.lineno or 0, "syntax",
                                    f"cannot parse: {exc.msg}"))
        return violations
    if Path(path).name not in EXEMPT_FILES:  # Rules A and B
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and _catches_budget(node):
                _check_handler(node, path, violations)
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _returns_verdict(node)):
                _check_verdict_fn(node, path, violations)
    _check_workers(tree, path, violations)
    _check_semantic_imports(tree, path, violations)
    _check_flow_rules(tree, path, violations)
    _check_memo_mechanism(tree, path, violations)
    return violations


def _semantic_module(dotted: str) -> bool:
    """Is *dotted* (an import path) the semantic kernel?  Matches any
    ``...core.semantics`` / ``...core.discard`` segment pair, so both
    absolute (``repro.core.discard``) and relative (``core.semantics``
    after the leading dots are stripped by the parser) spellings hit."""
    parts = dotted.split(".")
    return any(a == "core" and b in SEMANTIC_MODULES
               for a, b in zip(parts, parts[1:]))


def _rule_e_exempt(path: str) -> bool:
    p = Path(path)
    if "core" in p.parts[:-1]:
        return True  # the kernel's own package
    return p.parent.name == "calculi" and p.name in SEMANTIC_IMPORTERS


def _check_semantic_imports(tree: ast.Module, path: str,
                            violations: list[Violation]) -> None:
    """Rule E: only core/ and the backends touch the semantic kernel."""
    if _rule_e_exempt(path):
        return

    def flag(node: ast.AST, what: str) -> None:
        violations.append(Violation(
            path, node.lineno, "direct-semantics",
            f"imports the semantic kernel ({what}) directly; resolve a "
            f"backend through `repro.calculi.registry` instead so "
            f"non-default calculi are not silently bypassed"))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _semantic_module(alias.name):
                    flag(node, f"`import {alias.name}`")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if _semantic_module(module):
                flag(node, f"`from {module} import ...`")
            elif module.split(".")[-1] == "core":
                for alias in node.names:
                    if alias.name in SEMANTIC_MODULES | SEMANTIC_NAMES:
                        flag(node, f"`from {module} import {alias.name}`")


def _check_workers(tree: ast.Module, path: str,
                   violations: list[Violation]) -> None:
    """Rule C: the verdict-level functions pool workers run exist and
    are annotated -> Verdict."""
    required = VERDICT_WORKERS.get(Path(path).name)
    if not required:
        return
    defined = {node.name: node for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for name in sorted(required):
        fn = defined.get(name)
        if fn is None:
            violations.append(Violation(
                path, 1, "worker-not-verdict",
                f"pool worker `{name}` must be defined in this module; "
                f"it is the verdict-level core each pool worker runs"))
        elif not _returns_verdict(fn):
            violations.append(Violation(
                path, fn.lineno, "worker-not-verdict",
                f"pool worker `{name}` must be annotated `-> Verdict`; a "
                f"BudgetExceeded escaping it answers a tripped budget "
                f"with an error instead of UNKNOWN"))


def _check_flow_scope(nodes: list[ast.stmt], owner: str, is_verdict: bool,
                      path: str, violations: list[Violation]) -> None:
    """Rule F parts b/c for one scope (module body or function body)."""
    own = _walk_same_scope(nodes)
    # Names bound to a presolver's result in this scope, best effort —
    # `ev = flow_refutes_barb(...)` and `ev := flow_refutes_barb(...)`.
    bound: dict[str, str] = {}
    for node in own:
        value = getattr(node, "value", None)
        if not (isinstance(value, ast.Call)
                and _call_name(value) in FLOW_PRESOLVERS):
            continue
        callee = _call_name(value)
        assert callee is not None
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    bound[t.id] = callee
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            target = node.target
            if isinstance(target, ast.Name):
                bound[target.id] = callee
    for node in own:
        if not isinstance(node, ast.Call):
            continue
        callee = _call_name(node)
        if (callee in FLOW_PRESOLVERS and not is_verdict
                and (Path(path).name, owner) not in FLOW_PRESOLVE_EXEMPT):
            violations.append(Violation(
                path, node.lineno, "flow-presolve",
                f"`{owner}` calls flow presolver `{callee}` but is not "
                f"annotated `-> Verdict`; flow answers must surface "
                f"through the three-valued verdict layer"))
        if _is_verdict_call(node) and node.func.attr == "of":  # type: ignore[union-attr]
            head = node.args[0] if node.args else None
            if not (isinstance(head, ast.Constant)
                    and isinstance(head.value, bool)):
                continue
            truth = head.value
            for sub in ast.walk(node):
                source: str | None = None
                if isinstance(sub, ast.Name) and sub.id in bound:
                    source = bound[sub.id]
                elif (isinstance(sub, ast.Call)
                      and _call_name(sub) in FLOW_PRESOLVERS):
                    source = _call_name(sub)
                if source is not None and truth != FLOW_POLARITY[source]:
                    side = ("claim reachability"
                            if source == "flow_refutes_barb"
                            else "refute an invariant")
                    violations.append(Violation(
                        path, sub.lineno, "flow-polarity",
                        f"result of `{source}` feeds "
                        f"`Verdict.of({truth}, ...)`: the abstraction "
                        f"over-approximates and must never {side}"))


def _check_flow_rules(tree: ast.Module, path: str,
                      violations: list[Violation]) -> None:
    """Rule F: flow results only surface one-sidedly via the verdict layer."""
    if "flow" in Path(path).parts[:-1]:
        # Part a: the abstraction package never touches Verdict at all.
        for node in ast.walk(tree):
            name = None
            if isinstance(node, ast.Name) and node.id == "Verdict":
                name = "Verdict"
            elif isinstance(node, ast.Attribute) and node.attr == "Verdict":
                name = "Verdict"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name.split(".")[-1] == "Verdict":
                        name = alias.name
            if name is not None:
                violations.append(Violation(
                    path, node.lineno, "flow-verdict",
                    f"flow module references `{name}`: the abstraction "
                    f"returns FlowEvidence (or None) and the verdict "
                    f"layer alone decides"))
        return
    _check_flow_scope(tree.body, "<module>", False, path, violations)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _check_flow_scope(node.body, node.name, _returns_verdict(node),
                              path, violations)


def _check_memo_mechanism(tree: ast.Module, path: str,
                          violations: list[Violation]) -> None:
    """Rule G: no ``functools`` function-level caches."""
    aliases = {alias.asname or alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}
    for node in ast.walk(tree):
        used = None
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            used = next((a.name for a in node.names
                         if a.name in FUNCTOOLS_CACHES), None)
        elif (isinstance(node, ast.Attribute)
              and node.attr in FUNCTOOLS_CACHES
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            used = node.attr
        if used is not None:
            violations.append(Violation(
                path, node.lineno, "memo-mechanism",
                f"uses `functools.{used}`; memoize node results on the "
                f"interned node's slots or in a backend memo table, which "
                f"`clear_caches()` resets"))


def check_file(path: Path) -> list[Violation]:
    return check_source(path.read_text(encoding="utf-8"), str(path))


def iter_files(roots: list[Path]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        else:
            files.extend(sorted(root.rglob("*.py")))
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="enforce the two-layer engine contract "
                    "(raw explorers re-raise, verdict checkers catch)")
    parser.add_argument("paths", nargs="*", type=Path,
                        default=[Path("src/repro")],
                        help="files or directories to check "
                             "(default: src/repro)")
    args = parser.parse_args(argv)

    violations: list[Violation] = []
    files = iter_files(args.paths)
    for path in files:
        violations.extend(check_file(path))
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} contract violation"
              f"{'s' if len(violations) != 1 else ''} "
              f"in {len(files)} files", file=sys.stderr)
        return 1
    print(f"contracts: OK ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
