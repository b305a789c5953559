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

At p = 1 that is M^(N/2 - 1) / Gamma(N/2) times the Haar O(N) average of
e^{+ M y sum x_i g_iN^2}, sum_k (M y)^k Z_(k)(X) / (k! Z_(k)(I_N)).  Factorials
go through log-gamma so k up to 60 stays in range; non-finite eigenvalues or y,
and an M that is not finite and positive, raise ConfigError.
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
    "unitary_symplectic_identity_check",
]

_POWERS = {"real": 1, "complex": 2, "quaternionic": 4}


def _log_double_factorial(k: int) -> float:
    """log (2k - 1)!! = log Gamma(2k + 1) - k log 2 - log Gamma(k + 1)."""
    return math.lgamma(2 * k + 1) - k * math.log(2.0) - math.lgamma(k + 1)


def _log_residue(M: float, s: float) -> float:
    """log M^(s - 1) / Gamma(s), the residue at infinity (1 / 2 pi i) oint e^{M t} t^(-s) dt."""
    return (s - 1.0) * math.log(M) - math.lgamma(s)


def _checked(x_eigs, y: float = 0.0, M: float = 1.0, N: int = 1) -> np.ndarray:
    """x_eigs as a 1-D array; ConfigError unless it is finite, y a finite real, M a finite
    real > 0 and N an integer >= 1 (no booleans)."""
    check_real("y", y)
    check_real("M", M, 0.0)
    check_count("N", N, 1)
    x = np.asarray(x_eigs, dtype=float)
    if not (x.ndim == 1 and np.isfinite(x).all()):
        raise ConfigError(f"x_eigs must be a finite 1-D array, got {x_eigs!r}")
    return x


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
    if family not in _POWERS:
        raise ConfigError(f"family must be one of {sorted(_POWERS)}")
    x = _checked(x_eigs)
    A = _u_series(x, max_k, _POWERS[family])
    ks = np.arange(max_k + 1)
    if family == "real":        # 2^k k! / (2k - 1)!!
        A = A * np.exp([k * math.log(2.0) + math.lgamma(k + 1.0) - _log_double_factorial(k)
                        for k in ks])
    elif family == "quaternionic":
        A = A / (ks + 1.0)
    return A


def zonal_I_closed_form(N: int, k: int) -> float:
    """Z_(k)(I_N) = Gamma(N/2 + k) 2^k / (Gamma(N/2) (2k - 1)!!)."""
    return math.exp(math.lgamma(N / 2.0 + k) + k * math.log(2.0)
                    - math.lgamma(N / 2.0) - _log_double_factorial(k))


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


def series_S(M: int, N: int, x_eigs, y: float, power: int, max_k: int = 50,
             return_tail: bool = False):
    """The contour integral by residue at infinity, sum_k A_k y^k M^(pN/2 + k - 1) / Gamma(pN/2 + k).

    Requires power in (1, 2, 4), N a positive integer and p*N even so the
    integrand is single-valued at infinity; `return_tail` adds |last term|.
    """
    if power not in (1, 2, 4):
        raise ConfigError(f"power must be 1, 2 or 4, got {power!r}")
    if (power * N) % 2:
        raise ConfigError("residue series needs power * N even")
    A = _u_series(_checked(x_eigs, y, M, N), max_k, power)
    terms = [A[k] * y**k * math.exp(_log_residue(M, power * N / 2.0 + k)) for k in range(max_k + 1)]
    return (sum(terms), abs(terms[-1])) if return_tail else sum(terms)


def haar_series(M: int, N: int, x_eigs, y: float, max_k: int = 50) -> float:
    """Zonal expansion of the Haar O(N) average of e^{+ M y sum x_i g_iN^2}:

        sum_k (M y)^k Z_(k)(X) / (k! Z_(k)(I_N)),

    valid for every N (the contour/residue route needs N even, this does not).
    """
    Z = zonal_row(_checked(x_eigs, y, M, N), max_k, "real")
    return sum((M * y) ** k * Z[k] * math.exp(-math.lgamma(k + 1.0)) / zonal_I_closed_form(N, k)
               for k in range(max_k + 1))


def _series_vs_contour(M: int, x: np.ndarray, y: float, power: int, max_k: int) -> dict:
    """Contour value, residue series, their relative gap and the series' last-term tail."""
    ct = contour_S(M, x, y, power=power)
    se_val, tail = series_S(M, x.size, x, y, power=power, max_k=max_k, return_tail=True)
    scale = max(abs(se_val), 1e-300)
    return {"contour": ct, "series": se_val, "rel_dev": abs(ct - se_val) / scale,
            "series_tail": tail / scale}


def zonal_identity_check(M: int, x_eigs, y: float, max_k: int = 50,
                         mc=None) -> dict:
    """Three-way check for the O(N) case: contour, residue series, Haar MC.

    The contour and residue-series legs require N even; the zonal expansion
    of the group average works for every N and is what an `mc` (mean, se)
    pair for e^{+ M y sum x_i g_iN^2} is compared against (positive-exponent
    convention; callers sampling e^{- M y ...} pass y -> -y first).
    """
    x = _checked(x_eigs, y, M)
    N = x.size
    hs = haar_series(M, N, x, y, max_k=max_k)
    out = {"haar_series": hs}
    if N % 2 == 0:
        out.update(_series_vs_contour(M, x, y, 1, max_k))
        # appendix proportionality: S = M^(N/2-1) / Gamma(N/2) * group average
        out["proportionality_dev"] = (abs(out["series"] - math.exp(_log_residue(M, N / 2.0)) * hs)
                                      / max(abs(out["series"]), 1e-300))
    if mc is not None:
        mean, se = mc
        out["mc_sigmas"] = abs(hs - mean) / se
    return out


def unitary_symplectic_identity_check(M: int, x_eigs, y: float,
                                      max_k: int = 50, mc_unitary=None) -> dict:
    """Series vs contour for the U(N) (simple poles) and Sp (double poles) cases; an
    `mc_unitary` (mean, se) pair meets the U(N) average sum_k (M y)^k C_(k)(X) Gamma(N) / Gamma(N + k)."""
    x = _checked(x_eigs, y, M)
    N = x.size
    out = {label: _series_vs_contour(M, x, y, power, max_k)
           for label, power in (("unitary", 2), ("symplectic", 4))}
    if mc_unitary is not None:
        mean, se = mc_unitary
        C = zonal_row(x, max_k, "complex")
        hs = sum((M * y) ** k * C[k] * math.exp(math.lgamma(float(N)) - math.lgamma(N + float(k)))
                 for k in range(max_k + 1))
        out["unitary"]["haar_series"] = hs
        out["unitary"]["mc_sigmas"] = abs(hs - mean) / se
    return out
