"""Exception types shared across the package."""

__all__ = ["SpinRscError", "EigensolverError", "MaximumNotFoundError", "DegenerateProtocolError"]


class SpinRscError(Exception):
    """Base class for domain errors raised by spinrsc."""


class EigensolverError(SpinRscError):
    """The dense symmetric eigensolver failed to reach the required residual."""


class MaximumNotFoundError(SpinRscError):
    """No local maximum of the objective was bracketed inside the search window."""


class DegenerateProtocolError(SpinRscError):
    """No excitation reaches the extended receiver, so no optimal sender state exists."""
