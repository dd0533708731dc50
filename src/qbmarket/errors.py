"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems (ValueError and argument
errors) exit 1, DataError exits 2, NumericalError and the builtin
ArithmeticError (overflow, division by zero) exit 3.
"""


class QbmError(Exception):
    """Base class for package-specific failures."""


class DataError(QbmError):
    """Invalid or unusable input data (bad CSV rows, empty series, ...)."""


class InsufficientDataError(DataError):
    """Too few samples to run an estimator at its stated precondition."""


class DegenerateDataError(DataError):
    """Data is structurally degenerate for the requested operation
    (zero variance, all-zero autocorrelation, non-positive fit points)."""


class NumericalError(QbmError):
    """A numerical procedure failed (integration, stability, blow-up)."""


class IntegrationError(NumericalError):
    """Moment propagation failed; the message names the offending time or step."""


class StabilityError(NumericalError):
    """A stability bound was violated or a solver blew up."""
