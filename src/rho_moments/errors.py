"""Exception types shared across the package."""

__all__ = ["DegenerateSpectrumError", "CapExceededError"]


class DegenerateSpectrumError(ValueError):
    """Eigenvalues too close for a determinant-ratio evaluation to be trusted."""


class CapExceededError(RuntimeError):
    """A request would exceed a configured cap or the exact-arithmetic budget."""
