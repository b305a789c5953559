"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2;
numerical failures exit with 3, namely DegenerateSkewProductError,
SingularWeightError, QuadratureError, PrecisionLossError, and the
arithmetic errors ZeroDivisionError, FloatingPointError and
numpy.linalg.LinAlgError; verification failures exit with 4.
`check_count` and `check_real` are the argument checks that raise ConfigError.
"""

import math
import numbers


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


def check_count(name: str, n, least: int) -> int:
    """n as an int; ConfigError unless it is an integer (not a boolean) >= least."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)


def check_real(name: str, x, above: float = -math.inf) -> float:
    """x as a float; ConfigError unless it is a finite real (not a boolean) > above."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not above < x < math.inf:
        raise ConfigError(f"{name} must be a finite real > {above:g}, got {x!r}")
    return float(x)
