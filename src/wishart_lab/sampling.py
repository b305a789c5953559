"""Monte-Carlo samplers and oracles.

Samplers use numpy's Philox counter-based generator (pinned in pyproject),
so a seed fully determines every stream on every platform; Gaussian and
chi-square draws go through the generator's deterministic transforms, never
OS entropy.  Sampling is chunked for memory only, in bytes (_CHUNK per array
of a chunk): `_chunks` slices each sampler's output, allocated once.  Rows
are drawn in order, one variate after another, so a stream does not depend
on the chunk size; the group-integral oracle, `haar_integral`, contracts a
one-row chunk through BLAS dot, not gemv, which may move an exponent's last
bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_count
from .params import ModelParams
from .zonal import _checked, _power

__all__ = [
    "McConfig",
    "sample_wishart_max_eig",
    "sample_wishart_all_eigs",
    "haar_integral",
]

#: bytes one array of a chunk's rows may take
_CHUNK = 2**20


@dataclass(frozen=True)
class McConfig:
    seed: int
    n_samples: int
    params: ModelParams

    def __post_init__(self):
        check_count("seed", self.seed, 0), check_count("n_samples", self.n_samples, 1)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _chunks(n: int, row_bytes: int):
    """Consecutive slices of range(n), each of as many rows of row_bytes as _CHUNK bytes hold
    (one at least); the first is the longest."""
    m = max(1, _CHUNK // row_bytes)
    return (slice(start, min(start + m, n)) for start in range(0, n, m))


def _chi_variates(rng: np.random.Generator, p: ModelParams, c: np.ndarray) -> np.ndarray:
    """c, one row per sample, filled with B's diagonal sqrt(1 + tau) chi_M, chi_{M-1}, ...,
    chi_{M-N+1} and subdiagonal chi_{N-1}, ..., chi_1, all over sqrt(M).  numpy's chisquare(df)
    is 2 standard_gamma(df / 2), so over consecutive chunks the stream is that of
    chisquare(df, size=(n_samples, 2N - 1)) whatever the chunk size."""
    df = np.r_[np.arange(p.M, p.M - p.N, -1), np.arange(p.N - 1, 0, -1)]
    rng.standard_gamma(df / 2, out=c)
    c *= 2.0
    c /= p.M
    np.sqrt(c, out=c)
    c[:, 0] *= math.sqrt(1.0 + p.tau)
    return c


def _bidiagonal_gram(c: np.ndarray) -> np.ndarray:
    """Lower triangle (all that eigvalsh reads) of B B^T, where each row of c
    holds a lower-bidiagonal B: diagonal a = c[:N], subdiagonal b = c[N:]."""
    m, n = c.shape[0], (c.shape[1] + 1) // 2
    T = np.zeros((m, n, n))
    flat = T.reshape(m, n * n)  # strided views: diagonal a_k^2 + b_{k-1}^2, subdiagonal a_k b_k
    np.square(c[:, :n], out=flat[:, ::n + 1])
    flat[:, n + 1::n + 1] += c[:, n:] ** 2
    np.multiply(c[:, :n - 1], c[:, n:], out=flat[:, n::n + 1])
    return T


#: Laguerre steps after which a lane that has not converged is an error
_LAGUERRE_STEPS = 40

#: rows of lanes the Laguerre step works in (q, r, s, G, H, g, t)
_STEP_ROWS = 7


def _bidiagonal_max_eig(c: np.ndarray, tri: np.ndarray | None = None,
                        work: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Largest eigenvalue of B B^T per row of c (B as in _bidiagonal_gram), by Laguerre's method.

    T = B B^T is tridiagonal with diagonal d_k = a_k^2 + b_{k-1}^2 and squared
    off-diagonal f_k = (a_k b_k)^2.  Started at the Gershgorin upper bound,
    Laguerre steps on p(lam) = det(T - lam) descend monotonically and cubically
    onto the largest root (Parlett, Math. Comp. 18 (1964); Li & Zeng, SIAM J.
    Sci. Comput. 15 (1994)); each costs O(N) vector operations over the chunk
    (_laguerre_step).  A lane stops once its step is at most 4e-16 lam, or is
    not finite (lam sits on a root, so some pivot is 0); stopped lanes drop out
    of the arrays once they are half of them.  A lane still moving after
    _LAGUERRE_STEPS steps raises FloatingPointError.

    c (m rows) is only read.  The work is done in two flat float buffers,
    allocated when not given: tri, of at least (2N - 1) m, holds the rows d
    and f, and work, of at least _STEP_ROWS m, the step's rows; the sampler
    lends its spent draw buffer as work.  The eigenvalues go into out (m).
    """
    m, w = c.shape
    n = (w + 1) // 2
    tri = np.empty(w * m) if tri is None else tri
    work = np.empty(_STEP_ROWS * m) if work is None else work
    out = np.empty(m) if out is None else out
    T = tri[:w * m].reshape(w, m)
    np.square(c.T, out=T)                   # rows a_k^2, then b_k^2
    for k in range(n - 1, 0, -1):           # downwards, so each square is read before it is overwritten
        T[k] += T[n + k - 1]                # d_k = a_k^2 + b_{k-1}^2
        T[n + k - 1] *= T[k - 1]            # f_{k-1} = a_{k-1}^2 b_{k-1}^2
    rows = work[:_STEP_ROWS * m].reshape(_STEP_ROWS, m)
    lam = _gershgorin_top(T[:n], T[n:], rows)
    live, active = np.arange(m), np.ones(m, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_LAGUERRE_STEPS):
            step = _laguerre_step(T[:n], T[n:], lam, rows)
            moving = np.isfinite(step)
            np.subtract(lam, step, out=lam, where=moving)
            moving &= active
            moving &= np.abs(step, out=rows[0]) > np.multiply(4e-16, lam, out=rows[1])
            if np.array_equal(moving, active):
                continue
            stopped = active & ~moving
            out[live[stopped]] = lam[stopped]
            active = moving
            if not active.any():
                return out
            if 2 * np.count_nonzero(active) <= active.size:     # compact once half have stopped
                live, lam = live[active], lam[active]
                T = _compress_lanes(tri, T, np.flatnonzero(active))
                rows = work[:_STEP_ROWS * lam.size].reshape(_STEP_ROWS, lam.size)
                active = np.ones(lam.size, dtype=bool)
    raise FloatingPointError(f"Laguerre iteration left {np.count_nonzero(active)} of {out.size} "
                             f"largest eigenvalues unconverged after {_LAGUERRE_STEPS} steps")


def _compress_lanes(flat: np.ndarray, a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """a[:, keep] as a C-contiguous array at the head of flat, a's own buffer, for at most
    half of a's lanes: row i then ends at or before the start of a's row i + 1."""
    out = flat[:a.shape[0] * keep.size].reshape(a.shape[0], keep.size)
    for src, dst in zip(a, out):
        np.take(src, keep, out=dst, mode="clip")
    return out


def _gershgorin_top(d: np.ndarray, f: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """max_k d_k + e_{k-1} + e_k per lane, e_k = sqrt(f_k): the Gershgorin upper bound of a
    tridiagonal with diagonal rows d and squared off-diagonal rows f.  rows[:3] are overwritten."""
    n = d.shape[0]
    top, e, e_prev = rows[:3]
    lam = np.full(d.shape[1], -np.inf)
    for k in range(n):
        np.copyto(top, d[k])
        if k < n - 1:
            np.sqrt(f[k], out=e)
            top += e
        if k:
            top += e_prev
        np.maximum(lam, top, out=lam)
        e, e_prev = e_prev, e
    return lam


def _laguerre_step(d: np.ndarray, f: np.ndarray, lam: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Laguerre step n / (G + sign(G) sqrt((n - 1)(n H - G^2))) on p(lam) = det(T - lam).

    G = p'/p and H = -G' are sums over the LDL^T pivots
    q_k = d_k - lam - f_{k-1} / q_{k-1}: with r_k = q_k'/q_k and
    s_k = q_k''/q_k, G = sum r_k and H = sum r_k^2 - s_k.  The sign follows
    G, so the step never overshoots the root nearest lam.  The recurrence
    runs in place in the seven rows of `rows`; the step is returned in its
    row H.
    """
    n = d.shape[0]
    q, r, s, G, H, g, t = rows
    np.subtract(d[0], lam, out=q)
    np.divide(-1.0, q, out=r)
    s.fill(0.0)
    np.copyto(G, r)
    np.multiply(r, r, out=H)
    for k in range(1, n):
        np.divide(f[k - 1], q, out=g)
        np.subtract(d[k], lam, out=q)
        q -= g                              # q_k = d_k - lam - g
        np.multiply(2.0, r, out=t)
        t *= r
        s -= t
        s *= g
        s /= q                              # s_k = g (s - 2 r^2) / q_k, with the old r
        r *= g
        r -= 1.0
        r /= q                              # r_k = (g r - 1) / q_k
        G += r
        np.multiply(r, r, out=t)
        t -= s
        H += t                              # H + (r_k^2 - s_k)
    H *= n
    np.multiply(G, G, out=t)
    H -= t
    np.maximum(H, 0.0, out=H)
    H *= n - 1
    np.sqrt(H, out=H)
    np.copysign(H, G, out=H)
    H += G
    return np.divide(n, H, out=H)


def sample_wishart_all_eigs(cfg: McConfig) -> np.ndarray:
    """Eigenvalues of S = X X^T / M, shape (n_samples, N), ascending.

    X is N x M Gaussian with row 1 scaled by sqrt(1 + tau).  Householder
    reflections, from the right starting on row 1 and from the left on rows
    2..N only, give S = B B^T / M in law with B lower bidiagonal: diagonal
    sqrt(1 + tau) chi_M, chi_{M-1}, ..., chi_{M-N+1}, subdiagonal chi_{N-1},
    ..., chi_1 (Dumitriu & Edelman, J. Math. Phys. 43 (2002), plus the spike).
    One batched tridiagonal eigvalsh per chunk, its (m, N, N) array at most
    _CHUNK bytes; every chunk is drawn into one buffer held for the call.
    """
    p, n = cfg.params, cfg.n_samples
    w, row_bytes = 2 * p.N - 1, 8 * p.N * p.N
    rng, out, whole = _rng(cfg.seed), np.empty((n, p.N)), np.empty(next(_chunks(n, row_bytes)).stop * w)
    for span in _chunks(n, row_bytes):
        c = _chi_variates(rng, p, whole[:(span.stop - span.start) * w].reshape(-1, w))
        out[span] = np.linalg.eigvalsh(_bidiagonal_gram(c))
    return out


def sample_wishart_max_eig(cfg: McConfig) -> np.ndarray:
    """Largest eigenvalue per sample of the bidiagonal model (Dumitriu & Edelman 2002;
    see sample_wishart_all_eigs), by a batched Laguerre iteration on its tridiagonal.

    It uses the same chi variates as sample_wishart_all_eigs and agrees with
    its last column to about 1e-15 relative.  Besides its output, a call
    holds two arrays of at most _CHUNK bytes: the draw buffer, of
    max(2N - 1, _STEP_ROWS) floats per sample, whose spent variates hold the
    Laguerre step's rows, and T's rows d and f.
    """
    p, n = cfg.params, cfg.n_samples
    w, width = 2 * p.N - 1, max(2 * p.N - 1, _STEP_ROWS)
    m = next(_chunks(n, 8 * width)).stop
    rng, whole, tri, out = _rng(cfg.seed), np.empty(m * width), np.empty(w * m), np.empty(n)
    for span in _chunks(n, 8 * width):
        k = span.stop - span.start
        c = _chi_variates(rng, p, whole[:k * w].reshape(k, w))
        _bidiagonal_max_eig(c, tri, whole[:k * width], out[span])
    return out


def haar_integral(cfg: McConfig, x_eigs, y: float, M: float | None = None,
                  family: str = "real") -> tuple[float, float]:
    """MC estimate (mean, SE) of the Haar average over O(N), U(N) or Sp(N) (`family` "real",
    "complex" or "quaternionic", as in `zonal`) of e^{+ M y sum x_i |g_iN|^2}, N = len(x_eigs).

    This is `zonal.haar_series`' sign convention.  At rank 1 the integrand
    reads g only through its last column, which is uniform on the real,
    complex or quaternionic unit sphere (Muirhead 1982): per sample, N rows
    of p = 1, 2 or 4 standard normals, and |g_iN|^2 is row i's sum of squares
    over the total.  With p = 1, y = tau_tilde and M = params.M it is the
    sphere representation of the eigenvalue j.p.d.f.'s group integral, up to
    an eigenvalue-dependent constant that cancels in ratios.  The eigenvalue
    count may differ from cfg.params.N, and M may be overridden: the group
    integral is meaningful for scalars (N, M) that no Wishart ensemble
    admits.  Bad inputs are a ConfigError; a term or mean out of the float
    range is a FloatingPointError (`_exp_moments`).
    """
    M = cfg.params.M if M is None else M
    x, p = _checked(x_eigs, y, M), _power(family)
    if not x.size:
        raise ConfigError("the group integral needs at least one eigenvalue")
    rng, a = _rng(cfg.seed), np.empty(cfg.n_samples)
    for span in _chunks(cfg.n_samples, 8 * p * x.size):
        g2 = np.square(rng.standard_normal((span.stop - span.start, x.size, p))).sum(axis=2)
        g2 /= np.sum(g2, axis=1, keepdims=True)
        a[span] = M * y * (g2 @ x)
    return _exp_moments(a)


def _exp_moments(a: np.ndarray) -> tuple[float, float]:
    """(mean, standard error) of e^a over a Monte-Carlo sample of exponents a.

    A standard error needs two samples at least (ConfigError; one gave nan).
    FloatingPointError unless the mean is a normal float and the standard
    error is not inf: a term that overflowed made the mean inf or nan, and a
    mean that underflowed read as a plausible 0.
    """
    if a.size < 2:
        raise ConfigError(f"a Monte-Carlo standard error needs n_samples >= 2, got {a.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.exp(a)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(a.size))
    if not (sys.float_info.min <= mean < math.inf and se != math.inf):
        raise FloatingPointError(f"the Monte-Carlo mean {mean:.6g} (standard error {se:.6g}) of "
                                 f"e^a, a at most {float(np.max(a)):.6g}, is not a normal float")
    return mean, se
