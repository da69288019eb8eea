"""Exception types shared across the package."""

__all__ = ["CapExceededError"]


class CapExceededError(RuntimeError):
    """A request would exceed a configured cap or the exact-arithmetic budget."""
