"""Exception hierarchy shared by all modules.

Every error raised on a contract violation derives from ChoquardError so
the command line driver can map failures to exit codes in one place.
"""


class ChoquardError(Exception):
    """Base class for all library errors."""


class ParseError(ChoquardError):
    """Malformed group tag, nonlinearity string, config entry or field data."""


class NonPositiveDefinite(ChoquardError):
    """Coxeter bilinear form is not positive definite (group not finite)."""


class CapExceeded(ChoquardError):
    """Group closure exceeded the element cap."""


class IncompatibleGrid(ChoquardError):
    """Grid parameters violate their constraints (dim, M, L)."""


class GridMismatch(ChoquardError):
    """Two fields or a field and an operator live on different grids."""


class AlphaOutOfRange(ChoquardError):
    """Riesz order alpha outside the open interval (0, N)."""


class NonpositiveQ(ChoquardError):
    """Interaction term Q(u) <= 0 where positivity is required."""


class NoDescent(ChoquardError):
    """Line search stagnated or iteration budget ran out above tolerance."""


class SymmetryDrift(ChoquardError):
    """Symmetry residual of a saddle iterate grew too large."""


class HypothesisViolation(ChoquardError):
    """Nonlinearity fails a structural hypothesis and no override was given."""
