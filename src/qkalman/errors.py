"""Exception taxonomy shared across the package.

Every error category carries one stable exit code, its class attribute
`QkError.exit_code`; the CLI exits with it (0 is success, 1 an
unexpected failure).
"""


class QkError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class DimensionError(QkError):
    """Shapes or qubit counts do not line up."""

    exit_code = 3


class DegenerateInputError(QkError):
    """An input is degenerate for the requested construction (e.g. zero matrix)."""

    exit_code = 4


class SingularityError(QkError):
    """A matrix that must be inverted is singular (or numerically so)."""

    exit_code = 5


class SigmaRangeError(QkError):
    """A singular value falls outside [1/kappa, 1] after rescaling."""

    exit_code = 6

    def __init__(self, sigma, lo, hi):
        super().__init__(
            f"singular value {sigma:.6g} outside [{lo:.6g}, {hi:.6g}]"
        )
        self.sigma = sigma
        self.lo = lo
        self.hi = hi


class SolverError(QkError):
    """Phase-factor solver failed to reach its residual target."""

    exit_code = 7

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ApproximationError(QkError):
    """Polynomial construction cannot meet the tolerance within the degree cap."""

    exit_code = 8


class NumericalFailureError(QkError):
    """A numerical kernel (SVD etc.) failed to converge."""

    exit_code = 9


class ParityError(QkError):
    """The singular value transform circuit only supports odd degree here."""

    exit_code = 11


class MeasurementBudgetError(QkError):
    """Sampling budget exhausted; carries whatever was estimated so far."""

    exit_code = 10

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ConfigError(QkError):
    """Configuration document failed validation; message names the field path."""

    exit_code = 2
