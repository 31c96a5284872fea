"""Shared exception types."""

__all__ = ["LimitExceeded", "RootFindingError"]


class LimitExceeded(RuntimeError):
    """An enumeration was refused because it would exceed a configured size limit."""


class RootFindingError(RuntimeError):
    """The simultaneous root-finder did not converge within its step budget,
    left the range of doubles, or could not certify a root by its exact residual."""
