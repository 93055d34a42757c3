"""Exception hierarchy shared across the package."""

from __future__ import annotations


class HestonFPError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(HestonFPError, ValueError):
    """A model parameter or state variable is outside its domain."""


class ConfigError(HestonFPError, ValueError):
    """A configuration object is internally inconsistent or malformed."""


class NonConvergence(HestonFPError, RuntimeError):
    """An iterative numerical procedure failed to reach tolerance.

    Carries the best partial result and its error bound so callers can
    inspect (and report) what was achieved before giving up.  Raised by a
    batch call, ``point`` is the index of the failing point.
    """

    def __init__(self, message: str, partial: float | None = None,
                 err_estimate: float | None = None, panels_used: int = 0,
                 point: int | None = None):
        super().__init__(message)
        self.partial = partial
        self.err_estimate = err_estimate
        self.panels_used = panels_used
        self.point = point


class DivisionDomain(HestonFPError, ArithmeticError):
    """A ratio could not be formed because the denominator underflowed."""


class NoRoot(HestonFPError, RuntimeError):
    """A root-finding scan located no sign change on its bracket grid."""


class InsufficientData(HestonFPError, ValueError):
    """A fit was requested with fewer samples than the method requires."""
