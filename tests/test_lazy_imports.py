"""Package re-exports load on first access (``repro._lazy``).

Every check here counts the modules a fresh interpreter has loaded; none
of them times anything.  ``import repro`` must stay clear of the layers
that no ``explore``/``reach``/``serve`` request uses, the request paths
must stay within pinned module sets, and the public surface must read
as it did when every package imported all of its modules: each
``__all__`` name resolves and is listed by ``dir``, and an export named
like a submodule (``repro.core.pretty``) is the export, not the module.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src"

#: Every package whose ``__init__`` re-exports names.
PACKAGES = ("repro", "repro.apps", "repro.axioms", "repro.calculi",
            "repro.core", "repro.engine", "repro.equiv", "repro.flow",
            "repro.lint", "repro.lts", "repro.obs", "repro.runtime",
            "repro.store")

#: Loaded by ``import repro``: the facade, the engine vocabulary and
#: ``obs``, with the kernel modules the parser needs.
IMPORT_REPRO = {
    "repro", "repro._lazy", "repro.api",
    "repro.core", "repro.core.freenames", "repro.core.names",
    "repro.core.parser", "repro.core.pretty", "repro.core.spans",
    "repro.core.substitution", "repro.core.syntax",
    "repro.engine", "repro.engine.budget", "repro.engine.verdict",
    "repro.obs", "repro.obs.metrics", "repro.obs.progress",
    "repro.obs.state", "repro.obs.tracing",
}

#: Layers no ``explore``/``reach``/``serve`` request touches.
NEVER_ON_REQUEST_PATHS = (
    "repro.apps", "repro.axioms", "repro.lint", "repro.runtime.simulator",
    "repro.calculi.cbs", "repro.calculi.pi", "repro.equiv.maytesting",
    "repro.equiv.acceptance",
)

#: ``repro.explore`` and ``repro.reach`` under both explore backends.
EXPLORE_REACH = IMPORT_REPRO | {
    "repro.calculi", "repro.calculi.backend", "repro.calculi.lossy",
    "repro.calculi.registry",
    "repro.core.actions", "repro.core.binders", "repro.core.canonical",
    "repro.core.discard", "repro.core.reduction", "repro.core.semantics",
    "repro.flow", "repro.flow.analysis", "repro.flow.presolve",
    "repro.lts", "repro.lts.graph", "repro.lts.minimize",
    "repro.lts.partition",
    "repro.runtime", "repro.runtime.analysis",
}

#: One ``serve`` line per relation, over a verdict store.
SERVE = IMPORT_REPRO | {
    "repro.calculi", "repro.calculi.backend", "repro.calculi.registry",
    "repro.core.actions", "repro.core.binders", "repro.core.canonical",
    "repro.core.discard", "repro.core.reduction", "repro.core.semantics",
    "repro.equiv", "repro.equiv.barbed", "repro.equiv.congruence",
    "repro.equiv.game", "repro.equiv.labelled", "repro.equiv.noisy",
    "repro.equiv.onthefly", "repro.equiv.reduction_graph",
    "repro.equiv.simulation", "repro.equiv.step",
    "repro.lts", "repro.lts.graph", "repro.lts.minimize",
    "repro.lts.partition", "repro.lts.weak",
    "repro.store", "repro.store.batch", "repro.store.codec",
    "repro.store.db",
}

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m == "repro" or m.startswith("repro."))))
"""


def loaded_after(code: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after *code*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code + _REPORT], env=env,
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return set(json.loads(result.stdout.splitlines()[-1]))


def under(modules: set[str], layer: str) -> set[str]:
    return {m for m in modules if m == layer or m.startswith(layer + ".")}


class TestWhatLoads:
    def test_import_repro(self):
        loaded = loaded_after("import repro")
        for layer in NEVER_ON_REQUEST_PATHS:
            assert not under(loaded, layer), layer
        assert loaded == IMPORT_REPRO

    def test_explore_and_reach(self):
        loaded = loaded_after(
            "import repro\n"
            "for calc in ('bpi', 'lossy'):\n"
            "    assert repro.explore('a<v> | a(x).x!', calculus=calc)"
            ".complete\n"
            "    assert repro.reach('a<v> | a(x).x!', 'v', calculus=calc)\n"
            "    assert not repro.reach('nu x x!.0 | b!', 'a',"
            " calculus=calc)\n")
        for layer in NEVER_ON_REQUEST_PATHS:
            assert not under(loaded, layer), layer
        assert loaded <= EXPLORE_REACH, sorted(loaded - EXPLORE_REACH)

    def test_serve_one_line_per_relation(self, tmp_path):
        from repro.api import RELATIONS
        lines = [json.dumps({"id": rel, "p": "a<b> | a(x).c<x>",
                             "q": "a<b>.c<b>", "relation": rel})
                 for rel in RELATIONS]
        loaded = loaded_after(
            "import io, repro\n"
            "from repro.store import VerdictStore, serve\n"
            f"lines = {lines!r}\n"
            "out = io.StringIO()\n"
            f"with VerdictStore({str(tmp_path / 'v.db')!r}) as store:\n"
            "    assert serve(io.StringIO('\\n'.join(lines)), out,"
            " store=store) == len(lines)\n"
            "assert '\"error\"' not in out.getvalue(), out.getvalue()\n")
        for layer in NEVER_ON_REQUEST_PATHS:
            assert not under(loaded, layer), layer
        assert loaded <= SERVE, sorted(loaded - SERVE)

    def test_clear_caches_loads_no_layer(self):
        loaded = loaded_after("import repro\n"
                              "repro.core.clear_caches()\n")
        assert loaded == IMPORT_REPRO | {"repro.core.cache"}
        assert not under(loaded, "repro.calculi")
        assert not under(loaded, "repro.flow")


class TestPublicSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_resolves_and_is_listed(self, package):
        pkg = importlib.import_module(package)
        listed = dir(pkg)
        for name in pkg.__all__:
            assert getattr(pkg, name) is not None
            assert name in listed
        assert len(set(pkg.__all__)) == len(pkg.__all__)

    def test_an_export_named_like_a_submodule_keeps_its_value(self):
        # Importing a submodule binds it on its package, which would
        # shadow a lazily resolved export of the same name; in a fresh
        # interpreter, each such export must read the same before and
        # after its submodule is imported.
        loaded_after(
            "import importlib, pkgutil\n"
            f"for package in {PACKAGES!r}:\n"
            "    pkg = importlib.import_module(package)\n"
            "    subs = {i.name for i in pkgutil.iter_modules(pkg.__path__)}\n"
            "    for name in sorted(subs & set(pkg.__all__)):\n"
            "        before = getattr(pkg, name)\n"
            "        importlib.import_module(f'{package}.{name}')\n"
            "        assert getattr(pkg, name) is before, (package, name)\n")

    def test_pretty_after_importing_its_module(self):
        loaded_after(
            "import repro.core.pretty\n"
            "from repro.core import pretty\n"
            "assert callable(pretty) and pretty.__name__ == 'pretty', pretty\n"
            "import repro.lts.minimize\n"
            "from repro.lts import minimize\n"
            "assert minimize.__name__ == 'minimize', minimize\n")

    def test_submodules_resolve_as_attributes(self):
        loaded = loaded_after(
            "import repro\n"
            "assert repro.core.syntax.Par.__name__ == 'Par'\n"
            "assert not hasattr(repro.core, 'no_such_module')\n")
        assert "repro.core.syntax" in loaded

    def test_unknown_names_raise_attribute_error(self):
        import repro
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.equiv.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            from repro.lts import no_such_name  # noqa: F401
