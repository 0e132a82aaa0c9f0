"""tools/check_contracts.py — the two-layer engine contract, enforced.

Raw explorers re-raise BudgetExceeded (with partials attached);
verdict-level checkers convert it to UNKNOWN.  These tests pin the
checker's judgement on synthetic offenders and keep the live tree clean.
"""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_contracts", REPO / "tools" / "check_contracts.py")
cc = importlib.util.module_from_spec(_spec)
sys.modules["check_contracts"] = cc  # dataclasses resolves __module__
_spec.loader.exec_module(cc)


def codes(src: str) -> list[str]:
    return [v.rule for v in cc.check_source(src)]


# -- Rule A: except BudgetExceeded must re-raise or return Verdicts ---------

def test_swallowing_pass_is_flagged():
    assert codes("""
def f():
    try:
        g()
    except BudgetExceeded:
        pass
""") == ["swallowed-trip"]


def test_returning_non_verdict_is_flagged():
    assert codes("""
def f():
    try:
        g()
    except BudgetExceeded as exc:
        return exc.partial
""") == ["swallowed-trip"]


def test_reraise_with_partial_is_clean():
    assert codes("""
def build(p):
    try:
        loop()
    except (BudgetExceeded, ValueError) as exc:
        exc.partial = acc
        raise
""") == []


def test_verdict_conversion_is_clean():
    assert codes("""
def check(p) -> Verdict:
    try:
        flag = run(p)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(flag)
""") == []


def test_mixed_verdict_returns_are_clean():
    # the runtime/analysis pattern: salvage a refutation from the partial,
    # else degrade — every return is still a Verdict
    assert codes("""
def check(p) -> Verdict:
    try:
        flag = run(p)
    except BudgetExceeded as exc:
        for s in (exc.partial or ()):
            if bad(s):
                return Verdict.of(False, evidence=s)
        return Verdict.from_exceeded(exc)
    return Verdict.of(flag)
""") == []


def test_legacy_alias_is_covered():
    assert codes("""
def f():
    try:
        g()
    except StateSpaceExceeded:
        return 0
""") == ["swallowed-trip"]


def test_nested_def_inside_handler_does_not_count_as_raise():
    assert codes("""
def f():
    try:
        g()
    except BudgetExceeded:
        def h():
            raise ValueError
        return h
""") == ["swallowed-trip"]


# -- Rule B: -> Verdict functions wrap raw explorer calls -------------------

def test_unguarded_explorer_is_flagged():
    assert codes("""
def check(p) -> Verdict:
    lts, root = build_step_lts(p)
    return Verdict.of(True)
""") == ["unguarded-explorer"]


def test_guarded_explorer_is_clean():
    assert codes("""
def check(p) -> Verdict:
    try:
        graph, roots = build_reduction_graph((p,), steps=True)
        block = coarsest_partition(graph, keys)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(True)
""") == []


def test_try_inside_with_is_recognised():
    # the equiv/labelled.py shape: span context manager around the try
    assert codes("""
def check(p) -> Verdict:
    with span("equiv") as sp:
        try:
            flag = solve_game(p, moves)
        except BudgetExceeded as exc:
            return Verdict.from_exceeded(exc)
    return Verdict.of(flag)
""") == []


def test_try_else_clause_is_outside_the_handler():
    assert codes("""
def check(p) -> Verdict:
    try:
        x = 1
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    else:
        states = reachable_states(p)
    return Verdict.of(True)
""") == ["unguarded-explorer"]


def test_non_verdict_function_not_subject_to_rule_b():
    assert codes("""
def helper(p):
    return build_step_lts(p)
""") == []


def test_explorer_in_nested_def_is_deferred():
    assert codes("""
def check(p) -> Verdict:
    def thunk():
        return build_step_lts(p)
    try:
        flag = run(thunk)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(flag)
""") == []


def test_unguarded_grow_is_flagged():
    # the one bounded BFS every closed-system search walks
    assert codes("""
def can_reach_barb(p, chan) -> Verdict:
    for sid in grow(lts, (p,), expand, meter, canonical=canonical_state):
        if has_barb(lts.states[sid], chan):
            return Verdict.of(True)
    return Verdict.of(False)
""") == ["unguarded-explorer"]


def test_unguarded_weak_barb_walk_and_refinement_are_flagged():
    # the kernel weak-barb walks and the labelled refinement raise on a
    # trip like every other raw explorer
    assert codes("""
def check(p, q) -> Verdict:
    if has_weak_barb(p, "a") != has_weak_barb(q, "a"):
        return Verdict.of(False)
    block = coarsest_partition_labelled(per_label, keys, budget=meter)
    return Verdict.of(block[0] == block[1])
""") == ["unguarded-explorer"] * 3


def test_unguarded_onthefly_explorer_is_flagged():
    # the PR-6 raw explorer is subject to Rule B like the eager ones
    assert codes("""
def check(p, q) -> Verdict:
    flag = explore_product((p, q), challenges)
    return Verdict.of(flag)
""") == ["unguarded-explorer"]


def test_guarded_onthefly_explorer_is_clean():
    assert codes("""
def check(p, q) -> Verdict:
    try:
        flag = explore_product((p, q), challenges)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
    return Verdict.of(flag)
""") == []


def test_string_annotation_counts():
    assert codes("""
def check(p) -> "Verdict":
    states = reachable_states(p)
    return Verdict.of(True)
""") == ["unguarded-explorer"]


# -- the live tree ----------------------------------------------------------

def test_src_repro_is_contract_clean():
    files = cc.iter_files([REPO / "src" / "repro"])
    assert files, "expected python files under src/repro"
    violations = [v for f in files for v in cc.check_file(f)]
    assert violations == [], "\n".join(map(str, violations))


def test_cli_exit_status():
    assert cc.main([str(REPO / "src" / "repro")]) == 0


# -- the facades: exempt from Rules A/B only --------------------------------

FACADE_SRC = """
import functools

def explore(p):
    try:
        return grow(p)
    except BudgetExceeded:
        return None

def show(p, chan):
    return flow_refutes_barb(p, chan)

@functools.cache
def cached(p):
    return p
"""


def test_facades_are_walked_and_checked_by_the_other_rules():
    names = {f.name for f in cc.iter_files([REPO / "src" / "repro"])}
    assert {"api.py", "__main__.py"} <= names
    for facade in ("src/repro/api.py", "src/repro/__main__.py"):
        found = [v.rule for v in cc.check_source(FACADE_SRC, facade)]
        assert found == ["flow-presolve", "memo-mechanism"], facade
    assert codes(FACADE_SRC) == ["swallowed-trip", "flow-presolve",
                                 "memo-mechanism"]


def test_flow_presolve_exemption_is_by_file_and_function():
    src = """
def _cmd_flow(args):
    return flow_refutes_barb(args.p, args.barb)
"""
    assert flow_codes(src, "src/repro/__main__.py") == []
    assert flow_codes(src, "src/repro/api.py") == ["flow-presolve"]
    assert all(reason for reason in cc.FLOW_PRESOLVE_EXEMPT.values())


# -- Rule C: pool workers must be verdict-level -----------------------------

def worker_codes(src: str) -> list[str]:
    # Rule C keys on the file name: pretend the source is store/batch.py.
    return [v.rule for v in cc.check_source(src, "src/repro/store/batch.py")]


def test_missing_worker_is_flagged():
    assert "worker-not-verdict" in worker_codes("""
def some_other_function():
    pass
""")


def test_worker_without_verdict_annotation_is_flagged():
    assert "worker-not-verdict" in worker_codes("""
def evaluate_request(p, q):
    return True
""")


def test_worker_with_wrong_annotation_is_flagged():
    assert "worker-not-verdict" in worker_codes("""
def evaluate_request(p, q) -> bool:
    return True
""")


def test_verdict_level_worker_is_clean():
    assert worker_codes("""
def evaluate_request(p, q) -> Verdict:
    try:
        return check(p, q)
    except BudgetExceeded as exc:
        return Verdict.from_exceeded(exc)
""") == []


def test_string_annotated_worker_is_clean():
    assert worker_codes("""
def evaluate_request(p, q) -> "Verdict":
    return check(p, q)
""") == []


def test_rule_c_only_applies_to_registered_files():
    src = "def unrelated(): pass"
    assert cc.check_source(src, "src/repro/equiv/labelled.py") == []


def test_live_batch_worker_is_verdict_level():
    violations = cc.check_file(REPO / "src" / "repro" / "store" / "batch.py")
    assert violations == [], "\n".join(map(str, violations))


# -- Rule E: only core/ and backends import the semantic kernel -------------

def rule_e_codes(src: str, path: str = "src/repro/equiv/foo.py") -> list[str]:
    return [v.rule for v in cc.check_source(src, path)]


def test_direct_semantics_import_is_flagged():
    assert rule_e_codes(
        "from ..core.semantics import step_transitions") == \
        ["direct-semantics"]


def test_direct_discard_import_is_flagged():
    assert rule_e_codes(
        "from repro.core.discard import discards") == ["direct-semantics"]


def test_absolute_module_import_is_flagged():
    assert rule_e_codes("import repro.core.semantics") == \
        ["direct-semantics"]


def test_reexport_loophole_is_flagged():
    # pulling a kernel name through core/__init__ is the same bypass
    assert rule_e_codes(
        "from ..core import step_transitions") == ["direct-semantics"]
    assert rule_e_codes(
        "from repro.core import listening_channels") == ["direct-semantics"]


def test_non_kernel_core_imports_are_clean():
    assert rule_e_codes("from ..core.reduction import barbs") == []
    assert rule_e_codes("from ..core.syntax import Process") == []
    assert rule_e_codes("from ..core import parse, pretty") == []


def test_core_package_is_exempt():
    src = "from .semantics import step_transitions\n" \
          "from .discard import discards\n"
    assert rule_e_codes(src, "src/repro/core/reduction.py") == []
    assert rule_e_codes("from .discard import discards",
                        "src/repro/core/__init__.py") == []


def test_backend_implementations_are_exempt():
    # only backend.py binds the kernel to the protocol; lossy and wireless
    # inherit the rules from it
    src = "from ..core.semantics import step_transitions"
    assert rule_e_codes(src, "src/repro/calculi/backend.py") == []
    for name in ("lossy.py", "wireless.py"):
        assert rule_e_codes(src, f"src/repro/calculi/{name}") == \
            ["direct-semantics"]


def test_registry_is_not_exempt():
    # only backend.py binds the kernel to the protocol; the registry
    # and any future calculi module go through CalculusBackend
    src = "from ..core.semantics import step_transitions"
    assert rule_e_codes(src, "src/repro/calculi/registry.py") == \
        ["direct-semantics"]


# -- Rule F: flow presolver results stay one-sided --------------------------

def flow_codes(src: str, path: str = "src/repro/core/reduction.py"
               ) -> list[str]:
    return [v.rule for v in cc.check_source(src, path)]


def test_flow_module_referencing_verdict_is_flagged():
    src = "from ..engine.verdict import Verdict\n" \
          "def f():\n    return Verdict.of(False)\n"
    found = flow_codes(src, "src/repro/flow/presolve.py")
    assert "flow-verdict" in found
    assert "flow-presolve" not in found  # parts b/c don't apply in flow/


def test_flow_module_attribute_verdict_is_flagged():
    src = "import repro\ndef f():\n    return repro.engine.Verdict\n"
    assert "flow-verdict" in flow_codes(src, "src/repro/flow/analysis.py")


def test_presolver_call_outside_verdict_fn_is_flagged():
    assert flow_codes("""
def quick_check(p, chan) -> bool:
    return flow_refutes_barb(p, chan) is not None
""") == ["flow-presolve"]


def test_presolver_call_at_module_level_is_flagged():
    assert flow_codes("ANSWER = flow_refutes_barb(P, 'a')\n") == \
        ["flow-presolve"]


def test_presolver_inside_verdict_fn_is_clean():
    assert flow_codes("""
def can_reach_barb(p, chan) -> Verdict:
    ev = flow_refutes_barb(p, chan)
    if ev is not None:
        return Verdict.of(False, evidence=ev)
    return Verdict.of(True)
""") == []


def test_refuter_feeding_true_verdict_is_flagged():
    # the cardinal sin: flow evidence claiming reachability
    assert flow_codes("""
def can_reach_barb(p, chan) -> Verdict:
    ev = flow_refutes_barb(p, chan)
    if ev is not None:
        return Verdict.of(True, evidence=ev)
    return Verdict.of(False)
""") == ["flow-polarity"]


def test_prover_feeding_false_verdict_is_flagged():
    assert flow_codes("""
def invariant_holds(p, pred) -> Verdict:
    ev = flow_proves_invariant(p, pred)
    if ev is not None:
        return Verdict.of(False, evidence=ev)
    return Verdict.of(True)
""") == ["flow-polarity"]


def test_prover_feeding_true_verdict_is_clean():
    assert flow_codes("""
def invariant_holds(p, pred) -> Verdict:
    ev = flow_proves_invariant(p, pred)
    if ev is not None:
        return Verdict.of(True, stats={"states": 0}, evidence=ev)
    return Verdict.of(False)
""") == []


def test_inline_presolver_call_in_wrong_polarity_is_flagged():
    found = flow_codes("""
def can_reach_barb(p, chan) -> Verdict:
    return Verdict.of(True, evidence=flow_refutes_barb(p, chan))
""")
    assert "flow-polarity" in found


def test_live_flow_package_is_verdict_free():
    flow_dir = REPO / "src" / "repro" / "flow"
    files = cc.iter_files([flow_dir])
    assert files, "expected python files under src/repro/flow"
    violations = [v for f in files for v in cc.check_file(f)]
    assert violations == [], "\n".join(map(str, violations))


# -- Rule G: no functools function-level caches -----------------------------

def test_lru_cache_decorator_is_flagged():
    assert codes("""
import functools

@functools.lru_cache(maxsize=65536)
def deliver(p, chan, values):
    return compute(p, chan, values)
""") == ["memo-mechanism"]


def test_cache_call_through_an_alias_is_flagged():
    assert codes("""
import functools as ft

deliver = ft.cache(compute)
""") == ["memo-mechanism"]


def test_cache_import_is_flagged():
    assert codes("""
from functools import partial, lru_cache as memo
""") == ["memo-mechanism"]


def test_other_functools_uses_are_clean():
    assert codes("""
import functools
from functools import partial

total = functools.reduce(add, xs)
""") == []
