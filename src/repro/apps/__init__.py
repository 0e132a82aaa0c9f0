"""The paper's worked examples as runnable applications."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".": ("cycle_detection", "pubsub", "pvm", "radio", "ram",
          "transactions"),
})
