"""Persistent content-addressed verdict cache + batch analysis service.

Three layers (see ``docs/service.md``):

* :mod:`repro.store.codec` — stable byte encoding of interned terms
  (``decode(encode(p)) is p``) and the content addresses built on it;
* :mod:`repro.store.db` — the sqlite-backed :class:`VerdictStore` with
  the budget-aware reuse rule;
* :mod:`repro.store.batch` — the deduplicating batch front end behind
  ``repro batch`` / ``repro serve``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".batch": ("BatchOutcome", "BatchResult", "CheckRequest",
               "evaluate_request", "parse_requests", "run_batch", "serve"),
    ".codec": ("CodecError", "decode", "encode", "pair_key",
               "state_digest"),
    ".db": ("SCHEMA_VERSION", "VerdictStore", "equivalence_name",
            "request_cap"),
})
