"""Monic Laguerre polynomials for the weight w0 and their CD kernel.

For w0(x) = x^alpha exp(-M x), alpha = M - N, the monic orthogonal family
satisfies the three-term recurrence

    L_{n+1}(x) = (x - a_n) L_n(x) - b_n L_{n-1}(x)
    a_n = (2 n + alpha + 1) / M,      b_n = n (n + alpha) / M^2

with norms h_n = <L_n, L_n>_2 = n! Gamma(n + alpha + 1) / M^(2n + alpha + 1).
These are the classical generalized-Laguerre coefficients rescaled by M; the
test suite re-derives them from scratch (Stieltjes on quadrature moments and
a Rodrigues expansion) rather than taking them on faith.

Norms are stored as logs; at M ~ 30 the raw h_n underflow long before the
quantities they normalise do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigError, check_count
from .params import ModelParams, weight_w

__all__ = ["LaguerreBasis", "build_basis", "eval_poly", "cd_kernel_k2"]


@dataclass(frozen=True)
class LaguerreBasis:
    params: ModelParams
    max_degree: int
    a: np.ndarray       # a_n for n = 0..max_degree-1
    b: np.ndarray       # b_n for n = 0..max_degree-1 (b[0] unused)
    log_h: np.ndarray   # log h_n for n = 0..max_degree

    def h(self, n: int) -> float:
        return math.exp(self.log_h[n])

    def eval_all(self, x) -> np.ndarray:
        """Values L_0..L_max_degree at x; shape (max_degree + 1,) + x.shape."""
        x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
        out = np.empty((self.max_degree + 1,) + x.shape, dtype=x.dtype)
        out[0] = 1.0
        if self.max_degree >= 1:
            out[1] = x - self.a[0]
        for n in range(1, self.max_degree):
            out[n + 1] = (x - self.a[n]) * out[n] - self.b[n] * out[n - 1]
        return out

    def eval_all_with_derivative(self, x):
        """(values, derivatives) of L_0..L_max_degree, by the differentiated recurrence."""
        x = np.asarray(x)
        L = self.eval_all(x)
        D = np.zeros_like(L)
        if self.max_degree >= 1:
            D[1] = 1.0
        for n in range(1, self.max_degree):
            D[n + 1] = L[n] + (x - self.a[n]) * D[n] - self.b[n] * D[n - 1]
        return L, D

    def coeffs(self, n: int) -> np.ndarray:
        """Monomial coefficients of L_n, ascending order, length n + 1."""
        if n > self.max_degree:
            raise ConfigError(f"degree {n} exceeds max_degree {self.max_degree}")
        prev = np.array([1.0])
        if n == 0:
            return prev
        cur = np.array([-self.a[0], 1.0])
        for m in range(1, n):
            nxt = np.zeros(m + 2)
            nxt[1:] += cur
            nxt[:-1] -= self.a[m] * cur
            nxt[: m] -= self.b[m] * prev
            prev, cur = cur, nxt
        return cur


def build_basis(params: ModelParams, max_degree: int | None = None) -> LaguerreBasis:
    """Recurrence coefficients and log-norms up to max_degree (default N + 2; an integer
    >= N + 2), built once per (params, max_degree) in a process; its arrays are read-only."""
    least = params.N + 2
    return _build_basis(params, least if max_degree is None else
                        check_count("max_degree", max_degree, least))


@cache
def _build_basis(params: ModelParams, max_degree: int) -> LaguerreBasis:
    alpha = params.alpha
    M = params.M
    n = np.arange(max_degree + 1, dtype=float)   # one spare entry: b_n pairs with h_n / h_{n-1}
    a = (2.0 * n + alpha + 1.0) / M
    b = n * (n + alpha) / M**2
    k = np.arange(max_degree + 1, dtype=float)
    log_h = (np.vectorize(math.lgamma)(k + 1.0)
             + np.vectorize(math.lgamma)(k + alpha + 1.0)
             - (2.0 * k + alpha + 1.0) * math.log(M))
    for arr in (a, b, log_h):
        arr.setflags(write=False)
    return LaguerreBasis(params, max_degree, a, b, log_h)


def eval_poly(basis: LaguerreBasis, n: int, x):
    """L_n(x) by forward recurrence; x may be real or complex, scalar or array."""
    if n > basis.max_degree or n < 0:
        raise ConfigError(f"degree {n} out of range 0..{basis.max_degree}")
    xa = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    vals = basis.eval_all(xa)[n]
    return vals if vals.ndim else vals[()]


def cd_kernel_k2(basis: LaguerreBasis, t: complex, x, y):
    """Christoffel-Darboux kernel K2(x, y) of the t-deformed Laguerre pair.

    Computed in the branch-unambiguous product form

        K2(x, y) = w(x; t) w(y; t) * y (t - tau_tilde y)
                   * [L_N(x) L_{N-1}(y) - L_N(y) L_{N-1}(x)] / (h_{N-1} (x - y))

    which agrees with the square-root prefactor form for real t and extends
    it continuously off the axis (w^2 * x (t - tau_tilde x) = w0).  Near the
    diagonal, |x - y| < 1e-6 (max(|x|, |y|) + 1), the CD ratio switches to the
    Wronskian of (L_N, L_{N-1}) at the midpoint; the expansion is odd around
    the midpoint so the switch is second-order accurate.
    """
    p = basis.params
    N = p.N
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    shape = x.shape
    xf, yf = x.reshape(-1), y.reshape(-1)
    wx = np.atleast_1d(weight_w(p, t, xf))
    wy = np.atleast_1d(weight_w(p, t, yf))
    hN1 = basis.h(N - 1)
    pref = wx * wy * yf * (t - p.tau_tilde * yf) / hN1

    Lx = basis.eval_all(xf)
    Ly = basis.eval_all(yf)
    num = Lx[N] * Ly[N - 1] - Ly[N] * Lx[N - 1]
    scale = np.maximum(np.abs(xf), np.abs(yf)) + 1.0
    near = np.abs(xf - yf) < 1e-6 * scale
    ratio = np.empty_like(num)
    np.divide(num, xf - yf, out=ratio, where=~near)
    if np.any(near):
        m = 0.5 * (xf[near] + yf[near])
        Lm, Dm = basis.eval_all_with_derivative(m)
        ratio[near] = Dm[N] * Lm[N - 1] - Lm[N] * Dm[N - 1]
    out = (pref * ratio).reshape(shape)
    return out if out.ndim else complex(out)
