"""Ensemble parameters, scalar weights, bulk density and contour geometry.

The model is the rank-1 spiked real Wishart ensemble: S = X X^T / M where X
is N x M with independent Gaussian columns of covariance
Sigma = diag(1 + tau, 1, ..., 1).  Everything downstream is parametrised by
(N, M, tau) plus the derived quantities

    tau_tilde = tau / (2 (1 + tau))        in [0, 1/2)
    gamma     = sqrt(N / M)                in (0, 1)

Two scalar weights drive all the special-function machinery:

    w(x; t) = exp(-M x / 2) x^((M-N-1)/2) (t - tau_tilde x)^(-1/2)
    w0(x)   = x^(M-N) exp(-M x)

with the square root taken on the principal branch (cut along the negative
real axis of t - tau_tilde x).  Note w0 != w^2; instead
w(x)^2 * x (t - tau_tilde x) = w0(x), an identity the kernel module leans on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SingularWeightError, check_count, check_real

__all__ = [
    "ModelParams",
    "ContourSpec",
    "weight_w",
    "weight_w0",
    "mp_edges",
    "mp_density",
    "make_contour",
]


@dataclass(frozen=True)
class ModelParams:
    """Dimensions and spike strength of the ensemble.

    N must be even and M > N (the finite-N formulas assume both); a boolean
    is refused for any of N, M and tau.
    """

    N: int
    M: int
    tau: float
    tau_tilde: float = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self):
        for name in ("N", "M", "tau"):
            if isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be a number, not a boolean")
        if not (isinstance(self.N, (int, np.integer)) and self.N > 0 and self.N % 2 == 0):
            raise ConfigError(f"N must be a positive even integer, got {self.N!r}")
        if not (isinstance(self.M, (int, np.integer)) and self.M > self.N):
            raise ConfigError(f"M must be an integer > N, got {self.M!r}")
        if not (isinstance(self.tau, numbers.Real) and math.isfinite(self.tau) and self.tau >= 0):
            raise ConfigError(f"tau must be a finite real >= 0, got {self.tau!r}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "tau_tilde", self.tau / (2.0 * (1.0 + self.tau)))
        object.__setattr__(self, "gamma", math.sqrt(self.N / self.M))

    @property
    def alpha(self) -> int:
        """Laguerre exponent M - N of the weight w0."""
        return self.M - self.N


def weight_w(params: ModelParams, t: complex, x):
    """Contour-dependent weight w(x; t) over finite x > 0 and a finite t that broadcasts (else ConfigError).

    The factor (t - tau_tilde x)^(-1/2) uses the principal branch, i.e. the
    cut sits where arg(t - tau_tilde x) = pi.  Raises SingularWeightError if
    any x lands within machine distance of its branch point t / tau_tilde.
    """
    x = np.asarray(x, dtype=float)
    ok = (x > 0) & (x < np.inf)                     # NaN fails both
    if not ok.all():
        raise ConfigError(f"weight_w needs finite x > 0, got {x[~ok].flat[0]:g}")
    if not np.isfinite(t).all():
        raise ConfigError(f"weight_w needs a finite t, got {np.ravel(t)[~np.isfinite(np.ravel(t))][0]}")
    u = np.asarray(t - params.tau_tilde * x, dtype=complex)
    if np.any(near := np.abs(u) < 64 * np.finfo(float).eps * np.maximum(np.abs(t), 1.0)):
        raise SingularWeightError(f"t - tau_tilde*x vanished at t={np.broadcast_to(t, u.shape)[near][0]}")
    expo = 0.5 * (params.M - params.N - 1)
    vals = np.exp(-0.5 * params.M * x) * x**expo / np.sqrt(u)
    return vals if vals.ndim else complex(vals)


def weight_w0(params: ModelParams, x):
    """Laguerre weight w0(x) = x^(M-N) exp(-M x) over finite x >= 0 (else ConfigError); positive on (0, inf)."""
    x = np.asarray(x, dtype=float)
    ok = (x >= 0) & (x < np.inf)                    # NaN fails both
    if not ok.all():
        raise ConfigError(f"weight_w0 needs finite x >= 0, got {x[~ok].flat[0]:g}")
    vals = x ** (params.M - params.N) * np.exp(-params.M * x)
    return vals if vals.ndim else float(vals)


def mp_edges(gamma: float) -> tuple[float, float]:
    """Bulk support edges for eigenvalues of X X^T / M with gamma^2 = N/M."""
    return (1.0 - gamma) ** 2, (1.0 + gamma) ** 2


def mp_density(params_or_gamma, lam):
    """Marchenko-Pastur bulk density of S = X X^T / M, elementwise in lam.

    Accepts either a ModelParams (gamma taken from it) or a bare aspect
    parameter gamma = sqrt(N/M) in (0, 1].  Normalised to unit mass:
    rho(lam) = sqrt((lam - b-) (b+ - lam)) / (2 pi gamma^2 lam) on [b-, b+]; NaN is a ConfigError.
    """
    gamma = params_or_gamma.gamma if isinstance(params_or_gamma, ModelParams) else float(params_or_gamma)
    if not 0 < gamma <= 1:
        raise ConfigError(f"gamma must lie in (0, 1], got {gamma}")
    lam = np.asarray(lam, dtype=float)
    if np.isnan(lam).any():
        raise ConfigError("mp_density needs lam that is not NaN")
    b_minus, b_plus = mp_edges(gamma)
    inside = (lam > b_minus) & (lam < b_plus)
    rho = np.zeros_like(lam)
    lam_in = lam[inside]
    rho[inside] = np.sqrt((lam_in - b_minus) * (b_plus - lam_in)) / (2.0 * np.pi * gamma**2 * lam_in)
    return rho if rho.ndim else float(rho)


@dataclass(frozen=True)
class ContourSpec:
    """Discretised circle around [0, z], traversed counter-clockwise.

    Node phases are offset by half a step so no node is real.  `weights`
    are plain dt weights (trapezoidal in the angle, spectrally accurate for
    integrands analytic in an annulus); divide by 2*pi*i for
    residue-normalised sums.
    """

    center: complex
    radius: float
    node_count: int
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def circle(cls, center: complex, radius: float, node_count: int) -> "ContourSpec":
        """`node_count` trapezoid nodes at phases 2*pi*(k + 1/2)/node_count."""
        theta = 2.0 * np.pi * (np.arange(node_count) + 0.5) / node_count
        nodes = center + radius * np.exp(1j * theta)
        # dt = i R e^{i theta} dtheta with dtheta = 2 pi / n
        weights = (2.0j * np.pi / node_count) * radius * np.exp(1j * theta)
        return cls(center, radius, node_count, nodes, weights)

    def integrate(self, fvals) -> complex:
        """Plain contour integral of sampled values (fixed summation order)."""
        return complex(np.sum(np.asarray(fvals) * self.weights))


def make_contour(z: float, node_count: int = 64, margin: float = 0.5) -> ContourSpec:
    """Circle centered at z/2 with radius z/2 + margin, enclosing [0, z].

    node_count must be an even integer >= 8 so conjugate node pairs exist and
    none sits on the real axis (phases are 2*pi*(k + 1/2)/node_count); z and
    margin must be finite and positive reals.  Booleans are refused.
    """
    z, margin = check_real("z", z, 0.0), check_real("margin", margin, 0.0)
    node_count = check_count("node_count", node_count, 8)
    if node_count % 2:
        raise ConfigError(f"node_count must be even, got {node_count}")
    return ContourSpec.circle(complex(z / 2.0, 0.0), z / 2.0 + margin, node_count)
