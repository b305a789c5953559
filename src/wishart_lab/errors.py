"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2;
numerical failures exit with 3, namely DegenerateSkewProductError,
SingularWeightError, QuadratureError, PrecisionLossError, and the
arithmetic errors ZeroDivisionError, FloatingPointError and
numpy.linalg.LinAlgError; verification failures exit with 4.
"""


class WishartLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(WishartLabError):
    """Invalid parameters or run configuration."""


class SingularWeightError(WishartLabError):
    """Weight evaluated too close to the branch point t = tau_tilde * x."""


class DegenerateSkewProductError(WishartLabError):
    """A pivot skew product <L_{2k-1}, L_{2k-2}>_1 is numerically zero (a bad contour node)."""


class QuadratureError(WishartLabError):
    """Non-finite sample or unmet precondition inside a quadrature rule."""


class PrecisionLossError(WishartLabError):
    """A computed value lost too many digits to cancellation, or left its range."""
