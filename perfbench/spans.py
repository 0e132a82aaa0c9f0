"""Outside-in span recorder: per-layer time without touching ``src/``.

The recorder wraps the public functions of each layer's modules (and the
methods of a few classes) for the length of a traced run, then puts every
original back.  A function is wrapped by replacing each module-level
binding of the original object -- found by identity, whatever name it
was imported under -- in the ``repro.*`` modules *other than* the one
that defines it.  Names are imported by value (``lts.graph`` holds its
own ``canonical_state``, ``calculi.backend`` holds ``_bpi_steps``), so
patching the defining module alone would miss those callers, and it
would catch the recursive calls inside the module, whose wrapper cost
would distort the numbers.  The one exception: when no code of the
defining module names the function, its own binding is replaced too.
That binding then only serves callers that import the name at call time
(``from .lts.graph import build_step_lts`` inside ``repro.api.explore``),
so no intra-module call is caught.

A wrapper opens a span unless the innermost open span already belongs to
the same layer (a call inside the layer): so ``calls`` counts entries
into a layer from outside it.  Spans live in flat in-memory arrays
(layer, parent, start, end) and are written out when the run ends.  A
span's self time is its duration minus the time its child spans cover.

:meth:`Recorder.uninstall` restores every binding it replaced.
"""

from __future__ import annotations

import dis
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

#: layer -> (modules whose public functions belong to it,
#:           "module:Class" whose own methods belong to it).
LAYERS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "api": (("repro.api",), ()),
    "core.parser": (("repro.core.parser",), ()),
    "core.substitution": (("repro.core.substitution",), ()),
    "core.canonical": (("repro.core.canonical",), ()),
    "core.semantics": (("repro.core.semantics", "repro.core.discard"), ()),
    "core.reduction": (("repro.core.reduction",), ()),
    "calculi.bpi": ((), ("repro.calculi.backend:BpiBackend",)),
    "calculi.lossy": ((), ("repro.calculi.backend:StructuralBackend",
                           "repro.calculi.lossy:LossyBackend")),
    "lts.graph": (("repro.lts.graph",), ()),
    "lts.weak": (("repro.lts.weak",), ("repro.lts.weak:LazyReach",)),
    "equiv.check": (("repro.equiv.labelled", "repro.equiv.barbed",
                     "repro.equiv.step", "repro.equiv.reduction_graph"), ()),
    "equiv.onthefly": (("repro.equiv.onthefly",), ()),
    "flow": (("repro.flow.analysis", "repro.flow.presolve"), ()),
    "store.codec": (("repro.store.codec",), ()),
    "store.db": ((), ("repro.store.db:VerdictStore.check",)),
    "store.db.lookup": ((), ("repro.store.db:VerdictStore.lookup",)),
    "store.db.record": ((), ("repro.store.db:VerdictStore.record",)),
    # request roots the benchmark opens itself (see Recorder.wrap_call):
    # its call into ``serve``, and each explore/reach request
    "store.batch": ((), ()),
    "request": ((), ()),
}

_NO_SPAN = -1
_GLOBAL_LOADS = ("LOAD_GLOBAL", "LOAD_NAME")


class Recorder:
    """In-memory spans: layer index, parent index, start and end times."""

    def __init__(self, layers: "list[str] | None" = None) -> None:
        self.layers = list(layers if layers is not None else LAYERS)
        self.layer = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        # open spans, innermost last; the sentinel keeps [-1] valid
        self._stack = [_NO_SPAN]
        self._open_layer = [_NO_SPAN]
        self._restore: list[tuple[Any, str, Any]] = []
        self._hooks: dict[str, list[Callable[[Any], None]]] = {}

    # -- spans -----------------------------------------------------------
    def _wrap(self, layer: int, fn: Callable[..., Any],
              name: str) -> Callable[..., Any]:
        clock = time.perf_counter
        open_layer = self._open_layer
        push_span, pop_span = self._stack.append, self._stack.pop
        push_layer, pop_layer = open_layer.append, open_layer.pop
        stack, fin, beg = self._stack, self.end, self.start
        add_layer, add_parent = self.layer.append, self.parent.append
        add_start, add_end = beg.append, fin.append

        def traced(*args: Any, **kwargs: Any) -> Any:
            if open_layer[-1] == layer:
                return fn(*args, **kwargs)
            i = len(beg)
            add_layer(layer)
            add_parent(stack[-1])
            add_end(0.0)
            push_span(i)
            push_layer(layer)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                fin[i] = clock()
                pop_span()
                pop_layer()

        wrapper = traced
        hooks = self._hooks.get(name)
        if hooks:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = traced(*args, **kwargs)
                for hook in hooks:
                    hook(result)
                return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_clear", "cache_info"):  # lru_cache'd functions
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def wrap_call(self, layer: str,
                  fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* inside a span of *layer*: for calls the benchmark makes
        itself (``serve``), which no ``repro`` module binding covers."""
        return self._wrap(self.layers.index(layer), fn, layer)

    def on_result(self, qualname: str, hook: Callable[[Any], None]) -> None:
        """Call *hook* with every result of ``module.function``.

        Counts come from the program's public results this way (e.g. the
        ``Verdict.stats`` of each check).  Register before :meth:`install`.
        """
        self._hooks.setdefault(qualname, []).append(hook)

    # -- (un)patching ----------------------------------------------------
    def install(self) -> None:
        """Import every ``repro`` module and wrap each layer's callables."""
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "repro" or name.startswith("repro.")}
        for index, layer in enumerate(self.layers):
            mods, classes = LAYERS.get(layer, ((), ()))
            for modname in mods:
                for name, fn in _public_functions(modules[modname]):
                    self._rebind(modules, modname, fn,
                                 self._wrap(index, fn, f"{modname}.{name}"))
            for spec in classes:
                self._wrap_methods(index, modules, spec)

    def _rebind(self, modules: dict[str, Any], home: str,
                original: Any, wrapper: Any) -> None:
        own = _named_in_module(modules[home], original.__name__)
        for modname, mod in modules.items():
            if modname == home and own:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap_methods(self, index: int, modules: dict[str, Any],
                      spec: str) -> None:
        modname, _, path = spec.partition(":")
        clsname, _, only = path.partition(".")
        cls = getattr(modules[modname], clsname)
        for name, fn in list(vars(cls).items()):
            if only and name != only:
                continue
            if only or (not name.startswith("_") and inspect.isfunction(fn)
                        and not inspect.isgeneratorfunction(fn)):
                self._restore.append((cls, name, fn))
                setattr(cls, name, self._wrap(
                    index, fn, f"{modname}.{clsname}.{name}"))

    def uninstall(self) -> None:
        """Put back every binding :meth:`install` replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def self_times(self) -> array:
        """Per span: its duration minus the time its child spans cover."""
        beg, fin = self.start, self.end
        own = array("d", (e - s for s, e in zip(beg, fin)))
        for i, p in enumerate(self.parent):
            if p != _NO_SPAN:
                own[p] -= fin[i] - beg[i]
        return own

    def summary(self, roots: tuple[str, ...] = ("request", "store.batch"),
                ) -> dict[str, dict[str, float]]:
        """layer -> {"calls": spans opened, "self_s": summed self time},
        over the spans inside a request: a tree whose root belongs to one
        of the *roots* layers.  Spans outside one (the benchmark clearing
        caches between requests) are housekeeping and left out."""
        root_ids = {self.layers.index(r) for r in roots}
        inside = bytearray(len(self.layer))
        calls = [0] * len(self.layers)
        own = [0.0] * len(self.layers)
        for i, (layer, parent, t) in enumerate(zip(
                self.layer, self.parent, self.self_times())):
            inside[i] = (layer in root_ids if parent == _NO_SPAN
                         else inside[parent])
            if inside[i]:
                calls[layer] += 1
                own[layer] += t
        return {name: {"calls": calls[i], "self_s": own[i]}
                for i, name in enumerate(self.layers)}

    def write(self, path: Path) -> None:
        """Dump the spans: a JSON header line, then the four arrays in
        machine byte order.  A request's spans are the subtree under one
        root span (parent -1); the root's index identifies the request."""
        header = {"layers": self.layers, "spans": len(self.start),
                  "arrays": [f"{name}:{arr.typecode}" for name, arr in (
                      ("layer", self.layer), ("parent", self.parent),
                      ("start", self.start), ("end", self.end))]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.layer, self.parent, self.start, self.end):
                arr.tofile(fh)


def _public_functions(mod: Any) -> list[tuple[str, Any]]:
    """Public plain functions *mod* defines (generators excluded: a
    generator returns before its work is done, so a span would lie)."""
    out = []
    for name, value in vars(mod).items():
        if name.startswith("_"):
            continue
        fn = getattr(value, "__wrapped__", value)
        if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(fn)):
            out.append((name, value))
    return out


def _named_in_module(mod: Any, name: str) -> bool:
    """Does code of *mod* load the global *name* (so that replacing the
    module's own binding would catch intra-module calls)?"""
    def codes(code: Any) -> Iterator[Any]:
        yield code
        for const in code.co_consts:
            if inspect.iscode(const):
                yield from codes(const)

    for value in list(vars(mod).values()):
        targets = [value]
        if inspect.isclass(value) and value.__module__ == mod.__name__:
            targets = list(vars(value).values())
        for target in targets:
            fn = getattr(target, "__wrapped__", target)
            if not (inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                continue
            for code in codes(fn.__code__):
                if any(ins.opname in _GLOBAL_LOADS and ins.argval == name
                       for ins in dis.get_instructions(code)):
                    return True
    return False
