"""Lazy package re-exports (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` a table from submodule
to the names it re-exports; the package gets back its ``__all__`` and the
module-level ``__getattr__``/``__dir__`` hooks::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".parser": ("ParseError", "parse"),
        ".pretty": ("pretty",),
    })

``repro.core.parse`` then imports :mod:`repro.core.parser` the first
time it is asked for, so importing a package costs only the modules a
caller actually uses.  A name resolves on every access (nothing is
written back into the package namespace), so the package's bindings are
exactly what its ``__init__`` and the import system put there.

Table entries:

* ``"name"`` re-exports ``module.name``; ``"attr as name"`` renames it;
* the module ``"."`` re-exports submodules themselves
  (``{".": ("cycle_detection", "pubsub")}``).

Any other submodule resolves on first access too, so
``repro.core.syntax`` works after a bare ``import repro`` as it did when
every ``__init__`` imported all of its modules.

One rule needs care.  Importing a submodule binds it as an attribute of
its package, and once bound, the package attribute is the module and
``__getattr__`` is never asked again.  So an export spelled like the
submodule that defines it (``pretty`` from ``.pretty``) is bound
eagerly, here, before anything else can import that submodule.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for *package* from *table*.

    *table* maps a module, relative to *package*, to the names it
    re-exports, in ``__all__`` order.
    """
    where: dict[str, tuple[str, str]] = {}
    for module, names in table.items():
        for entry in names:
            attr, _, name = entry.partition(" as ")
            where[name or attr] = (module, attr)
    namespace = vars(sys.modules[package])

    def resolve(name: str) -> Any:
        module, attr = where[name]
        if module == ".":
            return importlib.import_module(f".{attr}", package)
        return getattr(importlib.import_module(module, package), attr)

    for name, (module, _attr) in where.items():
        if module == f".{name}":
            namespace[name] = resolve(name)

    def __getattr__(name: str) -> Any:
        if name in where:
            return resolve(name)
        missing = AttributeError(
            f"module {package!r} has no attribute {name!r}")
        if name.startswith("__"):
            raise missing
        try:
            return importlib.import_module(f".{name}", package)
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise
            raise missing from None

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__
