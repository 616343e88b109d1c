"""Exception types shared across the package."""

__all__ = ["TrendkitError", "DataError", "InsufficientHistoryError", "NumericalError",
           "NotPositiveDefiniteError", "ConvergenceError"]


class TrendkitError(Exception):
    """Base class for package-specific errors."""


class DataError(TrendkitError):
    """Malformed or inconsistent input data (CSV parse errors, bad series)."""


class InsufficientHistoryError(DataError):
    """A procedure needs more samples than the input provides."""


class NumericalError(TrendkitError):
    """Numerical failure inside a solver."""


class NotPositiveDefiniteError(NumericalError):
    """Band Cholesky hit a non-positive pivot."""


class ConvergenceError(NumericalError):
    """Iterative solver broke down or failed to reach tolerance.

    Carries the failed solve's record (its last iterate) as ``diagnostics``.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
