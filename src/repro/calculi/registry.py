"""Named registry of calculus backends.

Engine layers resolve a semantics through :func:`resolve` instead of
importing ``core.semantics`` directly (contract Rule E).  A *spec* is

* ``None`` — the default ``"bpi"`` backend;
* a name — ``"bpi"``, ``"lossy"``, ``"wireless"``;
* a parameterised name — ``"wireless:a-b,b-c"`` (the parameter string is
  handed to the backend family's factory);
* an already-constructed :class:`~repro.calculi.backend.CalculusBackend`
  (e.g. from ``WirelessBackend.connect``), which stands for its spec.

Spec strings are plain text, so they are picklable and travel unchanged
to worker processes (``store/batch.py`` ships them in task payloads).
One instance is cached per canonical spec — an instance built outside the
registry is registered under its spec the first time it is resolved — so
one spec means one set of memo tables, persisting for the session;
:func:`clear_caches` drops them all (wired into ``core.cache.clear_caches``).
"""

from __future__ import annotations

from typing import Callable

from .backend import BpiBackend, CalculusBackend

_FACTORIES: dict[str, Callable[[str], CalculusBackend]] = {}
_INSTANCES: dict[str, CalculusBackend] = {}


def register(name: str,
             factory: Callable[[str], CalculusBackend]) -> None:
    """Register a backend family under *name*.

    *factory* receives the parameter string (empty when the spec is the
    bare name) and returns a backend instance.
    """
    if not name or ":" in name:
        raise ValueError(f"invalid backend name {name!r}")
    _FACTORIES[name] = factory


def names() -> tuple[str, ...]:
    """The registered backend family names, sorted."""
    return tuple(sorted(_FACTORIES))


def resolve(spec: str | CalculusBackend | None = None) -> CalculusBackend:
    """Resolve *spec* to a (cached) backend instance."""
    if spec is None:
        spec = "bpi"
    if isinstance(spec, CalculusBackend):
        return _INSTANCES.setdefault(spec.spec, spec)
    if not isinstance(spec, str):
        raise TypeError(
            f"calculus spec must be a name, 'name:params' string, or a "
            f"CalculusBackend (got {type(spec).__name__})")
    name, sep, params = spec.partition(":")
    name = name.strip()
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown calculus {name!r} (registered: {', '.join(names())})"
        ) from None
    backend = factory(params.strip() if sep else "")
    # Cache by the *canonical* spec the instance reports, so equivalent
    # spellings ("wireless:b-a", "wireless:a-b") share memo tables.
    return _INSTANCES.setdefault(backend.spec, backend)


def default() -> CalculusBackend:
    """The default (paper) backend."""
    return resolve("bpi")


def clear_caches() -> None:
    """Drop the memo tables of every cached backend instance."""
    for backend in _INSTANCES.values():
        backend.clear_caches()


def _make_bpi(params: str) -> CalculusBackend:
    if params:
        raise ValueError("the 'bpi' backend takes no parameters")
    return BpiBackend()


# The lossy and wireless backends load on their first resolve, so a
# process that only resolves "bpi" never imports them.
def _make_lossy(params: str) -> CalculusBackend:
    if params:
        raise ValueError("the 'lossy' backend takes no parameters")
    from .lossy import LossyBackend
    return LossyBackend()


def _make_wireless(params: str) -> CalculusBackend:
    from .wireless import Topology, WirelessBackend
    try:
        return WirelessBackend(Topology.parse(params))
    except ValueError as exc:
        raise ValueError(f"bad 'wireless' backend spec: {exc}") from None


register("bpi", _make_bpi)
register("lossy", _make_lossy)
register("wireless", _make_wireless)
