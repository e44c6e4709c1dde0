"""Semantic exception hierarchy shared by every pconvex module.

Public functions never raise bare ValueError; callers can catch
PconvexError to handle any library failure, or a specific subclass
to branch on the failure mode (the CLI maps these to exit codes).
"""

from __future__ import annotations


class PconvexError(Exception):
    """Base error for the package."""


class ContradictionError(PconvexError):
    """Two checks of one claim disagree: a risk comparison whose certificate
    passes while its falsifier finds a violating lottery."""


class DomainError(PconvexError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeOverflowError(PconvexError, OverflowError):
    """The exact result exceeds double-precision range."""


class ConvergenceError(PconvexError):
    """An iterative scheme failed to reach the requested tolerance.

    Carries the best available estimate so callers can degrade gracefully.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class BracketError(PconvexError, ValueError):
    """A root/inverse target is not enclosed by the available bracket."""


class ConstructionError(PconvexError, ValueError):
    """Invalid parameters for a catalog function or distribution."""


class DerivativeOrderError(PconvexError, ValueError):
    """A derivative beyond the stored (or numerically reachable) order was requested."""


class MonotonicityError(PconvexError):
    """A function required to be strictly increasing is not, on the checked grid."""


class SupportViolationError(PconvexError, ValueError):
    """Probability mass lies outside the support required by an operation."""


class MomentDivergenceError(PconvexError):
    """A required moment is infinite or its quadrature diverges."""


class UnboundedSupportError(PconvexError, ValueError):
    """A bounded-support formula was invoked on an unbounded random variable."""


class DomainMismatchError(PconvexError, ValueError):
    """A random variable is not supported inside a function's domain."""


class CertificateError(PconvexError, ValueError):
    """A bound was invoked with a failing or mismatched convexity certificate."""


class InputFormatError(PconvexError, ValueError):
    """Malformed problem/descriptor input; message carries a field diagnostic."""
