"""Single-row zonal polynomials and the rank-1 group-integral identities.

At rank 1 only single-row partitions survive (Z_p(Y) vanishes for a rank-1 Y
unless p = (k)), so everything is read off one u-series of the eigenvalues
x_i, built by convolving per-eigenvalue binomial series (A_k >= 0 for x_i >= 0):

    prod_i (1 - u x_i)^(-p/2) = sum_k A_k u^k,    p = 1, 2, 4
    real (O(N), p = 1):           Z_(k)(X) = A_k 2^k k! / (2k - 1)!!
    complex (U(N), p = 2):        C_(k)(X) = A_k
    quaternionic (Sp(N), p = 4):  Q_(k)(X) = A_k / (k + 1)

Term by term, the residue at infinity (1 / 2 pi i) oint e^{M t} t^(-s) dt =
M^(s - 1) / Gamma(s) sums the contour integral (p N even, so the integrand is
single-valued at infinity):

    S_p(y) = (1 / 2 pi i) oint e^{M t} prod_i (t - x_i y)^(-p/2) dt
           = sum_k A_k y^k M^(pN/2 + k - 1) / Gamma(pN/2 + k).

That is M^(pN/2 - 1) / Gamma(pN/2) times the Haar average over O(N), U(N) or
Sp(N) of e^{+ M y sum x_i |g_iN|^2}, sum_k (M y)^k Z_(k)(X) / (k! Z_(k)(I_N))
(`haar_series`, with C_(k) or Q_(k) for p = 2 or 4), which needs no parity.
`zonal_identity_check` checks the three against each other for any family.
Factorials go through log-gamma so k up to 60 stays in range; non-finite
eigenvalues or y, an M that is not finite and positive, and a group dimension
N below the eigenvalue count raise ConfigError (an N above it pads X with
zero eigenvalues).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, check_count, check_real
from .params import ContourSpec, make_contour

__all__ = [
    "zonal_row",
    "zonal_I_closed_form",
    "contour_S",
    "series_S",
    "haar_series",
    "zonal_identity_check",
]

_POWERS = {"real": 1, "complex": 2, "quaternionic": 4}


def _log_double_factorial(k: int) -> float:
    """log (2k - 1)!! = log Gamma(2k + 1) - k log 2 - log Gamma(k + 1)."""
    return math.lgamma(2 * k + 1) - k * math.log(2.0) - math.lgamma(k + 1)


def _log_residue(M: float, s: float) -> float:
    """log M^(s - 1) / Gamma(s), the residue at infinity (1 / 2 pi i) oint e^{M t} t^(-s) dt."""
    return (s - 1.0) * math.log(M) - math.lgamma(s)


def _checked(x_eigs, y: float = 0.0, M: float = 1.0, N: int | None = None) -> np.ndarray:
    """x_eigs as a 1-D array; ConfigError unless it is finite, y a finite real, M a finite real
    > 0 and a given N an integer >= 1 (no booleans) at least len(x_eigs), which pads X with 0s."""
    check_real("y", y)
    check_real("M", M, 0.0)
    x = np.asarray(x_eigs, dtype=float)
    if not (x.ndim == 1 and np.isfinite(x).all()):
        raise ConfigError(f"x_eigs must be a finite 1-D array, got {x_eigs!r}")
    if N is not None and check_count("N", N, 1) < x.size:
        raise ConfigError(f"the group dimension N = {N} is below the {x.size} eigenvalues of x_eigs")
    return x


def _power(family: str) -> int:
    """p = 1, 2, 4 of the real, complex or quaternionic family (ConfigError for any other)."""
    if family not in _POWERS:
        raise ConfigError(f"family must be one of {sorted(_POWERS)}, got {family!r}")
    return _POWERS[family]


def _u_series(x: np.ndarray, max_k, power: int) -> np.ndarray:
    """A_k, k = 0..max_k, with prod_i (1 - u x_i)^(-power/2) = sum_k A_k u^k."""
    if check_count("max_k", max_k, 0) > 60:
        raise ConfigError(f"max_k must be at most 60 (log-factorial guard), got {max_k!r}")
    ks = np.arange(max_k + 1)
    # (1 - u x)^(-p/2) = sum_m binom(m + p/2 - 1, m) (u x)^m
    binom = np.exp([math.lgamma(m + power / 2.0) - math.lgamma(power / 2.0) - math.lgamma(m + 1.0)
                    for m in ks])
    A = np.zeros(max_k + 1)
    A[0] = 1.0
    for xi in x:
        A = np.convolve(A, binom * xi**ks)[: max_k + 1]
    return A


def zonal_row(x_eigs, max_k: int, family: str = "real") -> np.ndarray:
    """Z_(k)(X) (or C_(k), Q_(k)) for k = 0..max_k, the family's multiple of the u-series,
    as a 1-D array of length max_k + 1."""
    A = _u_series(_checked(x_eigs), max_k, _power(family))
    ks = np.arange(max_k + 1)
    if family == "real":        # 2^k k! / (2k - 1)!!
        A = A * np.exp([k * math.log(2.0) + math.lgamma(k + 1.0) - _log_double_factorial(k)
                        for k in ks])
    elif family == "quaternionic":
        A = A / (ks + 1.0)
    return A


def zonal_I_closed_form(N: int, k: int, family: str = "real") -> float:
    """Z_(k)(I_N) = Gamma(N/2 + k) 2^k / (Gamma(N/2) (2k - 1)!!), C_(k)(I_N) = Gamma(N + k) /
    (Gamma(N) k!) or Q_(k)(I_N) = Gamma(2N + k) / (Gamma(2N) (k + 1)!)."""
    power = _power(family)
    if power == 1:
        return math.exp(math.lgamma(N / 2.0 + k) + k * math.log(2.0)
                        - math.lgamma(N / 2.0) - _log_double_factorial(k))
    a = power * N / 2.0
    return math.exp(math.lgamma(a + k) - math.lgamma(a) - math.lgamma(k + power / 2.0))


def contour_S(M: int, x_eigs, y: float, power: int,
              contour: ContourSpec | None = None) -> complex:
    """(1 / 2 pi i) oint e^{M t} prod_i (t - x_i y)^(-power/2) dt, for power * N even."""
    sing = _checked(x_eigs, y, M) * y
    if (power * sing.size) % 2:     # the product's cut would run to infinity, across the circle
        raise ConfigError("contour_S needs power * N even")
    if contour is None:
        hi = float(np.max(np.abs(sing), initial=0.0))
        contour = make_contour(2.0 * hi + 1.0, node_count=128, margin=0.5)
    if np.any(np.abs(sing - contour.center) >= 0.999 * contour.radius):
        raise ConfigError("contour does not enclose all x_i * y")
    t = contour.nodes[:, None]
    vals = np.exp(M * contour.nodes) * np.prod((t - sing) ** (-power / 2.0), axis=1)
    return contour.integrate(vals) / (2.0j * np.pi)


def _residue_terms(M: int, N: int, x_eigs, y: float, power: int, max_k: int) -> list[float]:
    """A_k y^k M^(pN/2 + k - 1) / Gamma(pN/2 + k), k = 0..max_k, of checked inputs."""
    if power not in (1, 2, 4):
        raise ConfigError(f"power must be 1, 2 or 4, got {power!r}")
    if (power * N) % 2:
        raise ConfigError("residue series needs power * N even")
    A = _u_series(_checked(x_eigs, y, M, N), max_k, power)
    return [A[k] * y**k * math.exp(_log_residue(M, power * N / 2.0 + k)) for k in range(max_k + 1)]


def series_S(M: int, N: int, x_eigs, y: float, power: int, max_k: int = 50) -> float:
    """The contour integral by residue at infinity, sum_k A_k y^k M^(pN/2 + k - 1) / Gamma(pN/2 + k).

    Requires power in (1, 2, 4), N a positive integer at least the eigenvalue
    count (X is padded with zero eigenvalues up to N) and p*N even so the
    integrand is single-valued at infinity.
    """
    return sum(_residue_terms(M, N, x_eigs, y, power, max_k))


def haar_series(M: int, N: int, x_eigs, y: float, max_k: int = 50, family: str = "real") -> float:
    """Zonal expansion of the Haar O(N), U(N) or Sp(N) average of e^{+ M y sum x_i |g_iN|^2}:

        sum_k (M y)^k Z_(k)(X) / (k! Z_(k)(I_N)),

    with C_(k) or Q_(k) in place of Z_(k) for the complex or quaternionic
    family.  Valid for every N at least the eigenvalue count (the
    contour/residue route needs p N even, this does not).
    """
    Z = zonal_row(_checked(x_eigs, y, M, N), max_k, family)
    return sum((M * y) ** k * Z[k] * math.exp(-math.lgamma(k + 1.0)) / zonal_I_closed_form(N, k, family)
               for k in range(max_k + 1))


def zonal_identity_check(M: int, x_eigs, y: float, family: str = "real", max_k: int = 50,
                         mc=None) -> dict:
    """Three-way check for the O(N), U(N) or Sp(N) case: contour, residue series, Haar MC.

    Always returns the zonal expansion of the group average, `haar_series`,
    which works for every N and is what an `mc` (mean, se) pair for
    e^{+ M y sum x_i |g_iN|^2} is compared against (positive-exponent
    convention; callers sampling e^{- M y ...} pass y -> -y first).  When
    p N is even it adds the `contour`, the residue `series`, their `rel_dev`,
    the series' last-term `series_tail` and `proportionality_dev`, the gap in
    S_p = M^(pN/2 - 1) / Gamma(pN/2) * (group average).
    """
    x = _checked(x_eigs, y, M)
    N, power = x.size, _power(family)
    hs = haar_series(M, N, x, y, max_k, family)
    out = {"haar_series": hs}
    if (power * N) % 2 == 0:
        terms = _residue_terms(M, N, x, y, power, max_k)
        ct, se_val = contour_S(M, x, y, power), sum(terms)
        scale = max(abs(se_val), 1e-300)
        out.update(contour=ct, series=se_val, rel_dev=abs(ct - se_val) / scale,
                   series_tail=abs(terms[-1]) / scale,
                   proportionality_dev=abs(se_val - math.exp(_log_residue(M, power * N / 2.0)) * hs) / scale)
    if mc is not None:
        out["mc_sigmas"] = abs(hs - mc[0]) / mc[1]
    return out
