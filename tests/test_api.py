"""Tests for the top-level facade (``repro.api``, re-exported by ``repro``)."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.api import RELATIONS, Exploration
from repro.core.syntax import Process
from repro.engine import Budget, Verdict


class TestImport:
    def test_import_loads_no_process_pool(self):
        # `repro batch --workers` imports its pool lazily; a plain
        # `import repro` must not pay for multiprocessing
        src = pathlib.Path(__file__).parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        code = ("import repro, sys; print(sorted(m for m in sys.modules "
                "if m in ('multiprocessing', 'concurrent.futures.process')))")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "[]"


class TestParse:
    def test_parse_from_package_root(self):
        p = repro.parse("a<v> | a(x).x!")
        assert isinstance(p, Process)

    def test_strings_accepted_everywhere(self):
        # every facade verb parses string operands itself
        assert repro.check("a!", "a!").is_true
        assert repro.reach("tau.x!", "x").is_true
        assert repro.decide_axioms("a! + a!", "a!").is_true
        assert repro.explore("a!.b!").complete


class TestCheck:
    def test_default_relation_is_labelled(self):
        assert repro.check("a?", "0").is_true  # input-or-discard
        assert repro.check("a?.c!", "0").is_false

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_every_relation_answers(self, relation):
        v = repro.check("a!", "a!", relation=relation)
        assert isinstance(v, Verdict) and v.is_true

    def test_congruence_is_finer(self):
        # a? ~ 0 labelled, but not as a congruence (input contexts tell)
        assert repro.check("a?", "0", relation="labelled").is_true
        assert repro.check("a?", "0", relation="congruence").is_false

    def test_weak(self):
        assert repro.check("tau.a!", "a!", relation="barbed",
                           weak=True).is_true
        assert repro.check("tau.a!", "a!", relation="barbed").is_false

    def test_unknown_on_tight_budget(self):
        # The global oracle must materialise the unbounded pair graph and
        # trips; the default on-the-fly core finds the distinguishing
        # prefix inside the same budget.
        v = repro.check("rec X(). tau.(a! | X)",
                        "rec Y(). tau.(a! | a! | Y)",
                        budget=Budget(max_states=50), strategy="global")
        assert v.is_unknown and v.reason == "max-states"
        assert v.stats["states"] >= 50
        v2 = repro.check("rec X(). tau.(a! | X)",
                         "rec Y(). tau.(a! | a! | Y)",
                         budget=Budget(max_states=50))
        assert v2.is_false

    def test_strategy_rejected_for_non_bisim_relation(self):
        with pytest.raises(ValueError, match="strategy"):
            repro.check("a!", "a!", relation="noisy", strategy="global")

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="unknown relation"):
            repro.check("a!", "a!", relation="telepathy")

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            repro.check("a!", "a!", "labelled")


class TestExplore:
    def test_complete_graph(self):
        ex = repro.explore("a!.b!")
        assert isinstance(ex, Exploration)
        assert ex.complete and ex.reason is None
        assert ex.n_states == 3  # a!.b!, b!, 0
        assert ex.root == 0
        assert len(ex.states) == ex.n_states

    def test_truncated_graph_never_raises(self):
        ex = repro.explore("rec X(). tau.(a! | X)",
                           budget=Budget(max_states=7))
        assert not ex.complete and ex.reason == "max-states"
        assert ex.n_states >= 1
        assert "truncated" in repr(ex)

    def test_meter_sharing(self):
        meter = Budget(max_states=100).meter()
        repro.explore("a!.b!", budget=meter)
        assert meter.states > 0

    def test_trip_on_the_root_gives_an_empty_graph(self):
        # the root's own charge trips: no state was explored, none is root
        for budget in (Budget(max_states=0),
                       Budget(max_states=1).meter()):
            if not isinstance(budget, Budget):
                budget.charge()  # a shared meter an earlier phase spent
            ex = repro.explore("a!", budget=budget)
            assert not ex.complete and ex.reason == "max-states"
            assert ex.n_states == 0 and ex.states == [] and ex.root is None


class TestDecideAxioms:
    def test_structural_laws(self):
        assert repro.decide_axioms("a! + 0", "a!").is_true
        assert repro.decide_axioms("a! | b!", "b! | a!").is_true
        assert repro.decide_axioms("a!", "b!").is_false

    def test_noisy_variant(self):
        # the Remark 3 pair: noisy-congruent but not plainly congruent
        p, q = "x!.y?.c! + y?.(x! | c!)", "x! | y?.c!"
        assert repro.decide_axioms(p, q, noisy=True).is_true
        assert repro.decide_axioms(p, q).is_false


class TestReach:
    def test_reachable(self):
        assert repro.reach("tau.tau.x!", "x").is_true
        assert repro.reach("tau.y!", "x").is_false

    def test_unknown_on_growth(self):
        v = repro.reach("rec X(). tau.(nu z (z! | a<z>.X))", "never",
                        budget=Budget(max_states=20))
        assert v.is_unknown or v.is_false  # growth may collapse finite
