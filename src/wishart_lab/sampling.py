"""Monte-Carlo and direct-integration oracles.

Samplers use numpy's Philox counter-based generator (pinned in pyproject),
so a seed fully determines every stream on every platform; Gaussian and
chi-square draws go through the generator's deterministic transforms, never
OS entropy.  Sampling is chunked for memory only: each chunk draws its rows
in order, one variate after another, so a stream does not depend on the
chunk size, which is set in bytes (_CHUNK per array of a chunk).

The group-integral oracles follow two sign conventions deliberately: the
sphere representation of the eigenvalue j.p.d.f. carries e^{+ M tau_tilde
sum lambda_j u_j^2}, while the rank-1 O(N) integral is stated as
e^{- M y sum x_i g_{iN}^2}.  The map between them is y -> -y; tests apply
it explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_count
from .params import ContourSpec, ModelParams
from .zonal import _checked, contour_S

__all__ = [
    "McConfig",
    "sample_wishart_max_eig",
    "sample_wishart_all_eigs",
    "haar_orthogonal",
    "haar_unitary",
    "sphere_integral_oracle",
    "contour_integral_I",
    "haar_orthogonal_integral",
    "haar_unitary_integral",
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


def _chunked(n: int, draw, row_bytes: int) -> np.ndarray:
    """Concatenate draw(m) over consecutive chunks of m rows, n rows in all, each chunk at
    most _CHUNK bytes per array of row_bytes per row (one row at least).

    Chunks are drawn in order, so the stream consumed depends on n only;
    each chunk's intermediates are freed before the next one is drawn.
    """
    m = max(1, _CHUNK // row_bytes)
    return np.concatenate([draw(min(m, n - start)) for start in range(0, n, m)])


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


def _bidiagonal_max_eig(c: np.ndarray) -> np.ndarray:
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
    """
    n = (c.shape[1] + 1) // 2
    sq = np.square(c.T, order="C")          # rows a_k^2, then b_k^2
    f = sq[:n - 1] * sq[n:]
    d = np.empty_like(sq[:n])
    d[0] = sq[0]
    np.add(sq[1:n], sq[n:], out=d[1:])
    del sq
    lam = _gershgorin_top(d, np.sqrt(f))
    out = np.empty_like(lam)
    live, active = np.arange(lam.size), np.ones(lam.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_LAGUERRE_STEPS):
            step = _laguerre_step(d, f, lam)
            moving = np.isfinite(step)
            lam -= np.where(moving, step, 0.0)
            moving &= active & (np.abs(step) > 4e-16 * lam)
            if np.array_equal(moving, active):
                continue
            stopped = active & ~moving
            out[live[stopped]] = lam[stopped]
            active = moving
            if not active.any():
                return out
            if 2 * np.count_nonzero(active) <= active.size:     # compact once half have stopped
                live, lam, d, f = live[active], lam[active], d[:, active], f[:, active]
                active = np.ones(lam.size, dtype=bool)
    raise FloatingPointError(f"Laguerre iteration left {np.count_nonzero(active)} of {out.size} "
                             f"largest eigenvalues unconverged after {_LAGUERRE_STEPS} steps")


def _gershgorin_top(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """max_k d_k + e_{k-1} + e_k per column: the Gershgorin upper bound of a
    tridiagonal with diagonal rows d and off-diagonal rows e >= 0."""
    top = d.copy()
    top[:-1] += e
    top[1:] += e
    return top.max(axis=0)


def _laguerre_step(d: np.ndarray, f: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Laguerre step n / (G + sign(G) sqrt((n - 1)(n H - G^2))) on p(lam) = det(T - lam).

    G = p'/p and H = -G' are sums over the LDL^T pivots
    q_k = d_k - lam - f_{k-1} / q_{k-1}: with r_k = q_k'/q_k and
    s_k = q_k''/q_k, G = sum r_k and H = sum r_k^2 - s_k.  The sign follows
    G, so the step never overshoots the root nearest lam.
    """
    n = d.shape[0]
    q = d[0] - lam
    r, s = -1.0 / q, 0.0
    G, H = r, r * r
    for k in range(1, n):
        g = f[k - 1] / q
        q = d[k] - lam - g
        r, s = (g * r - 1.0) / q, g * (s - 2.0 * r * r) / q
        G = G + r
        H = H + (r * r - s)
    return n / (G + np.copysign(np.sqrt((n - 1) * np.maximum(n * H - G * G, 0.0)), G))


def _sample_bidiagonal(cfg: McConfig, solve, row_bytes: int) -> np.ndarray:
    """solve(c) over chunks of the bidiagonal model's chi variates, one row of c per sample,
    each chunk sized for row_bytes per sample in solve's largest array (`_chunked`).

    Each row holds B's diagonal sqrt(1 + tau) chi_M, chi_{M-1}, ...,
    chi_{M-N+1} and subdiagonal chi_{N-1}, ..., chi_1, all over sqrt(M).
    """
    p = cfg.params
    rng = _rng(cfg.seed)
    df = np.r_[np.arange(p.M, p.M - p.N, -1), np.arange(p.N - 1, 0, -1)]

    def draw(m):
        c = rng.chisquare(df, size=(m, df.size))
        c /= p.M
        np.sqrt(c, out=c)
        c[:, 0] *= math.sqrt(1.0 + p.tau)
        return solve(c)

    return _chunked(cfg.n_samples, draw, row_bytes)


def sample_wishart_all_eigs(cfg: McConfig) -> np.ndarray:
    """Eigenvalues of S = X X^T / M, shape (n_samples, N), ascending.

    X is N x M Gaussian with row 1 scaled by sqrt(1 + tau).  Householder
    reflections, from the right starting on row 1 and from the left on rows
    2..N only, give S = B B^T / M in law with B lower bidiagonal: diagonal
    sqrt(1 + tau) chi_M, chi_{M-1}, ..., chi_{M-N+1}, subdiagonal chi_{N-1},
    ..., chi_1 (Dumitriu & Edelman, J. Math. Phys. 43 (2002), plus the spike).
    """
    return _sample_bidiagonal(cfg, lambda c: np.linalg.eigvalsh(_bidiagonal_gram(c)),
                              8 * cfg.params.N ** 2)


def sample_wishart_max_eig(cfg: McConfig) -> np.ndarray:
    """Largest eigenvalue per sample of the bidiagonal model (Dumitriu & Edelman 2002;
    see sample_wishart_all_eigs), by a batched Laguerre iteration on its tridiagonal.

    It uses the same chi variates as sample_wishart_all_eigs and agrees with
    its last column to about 1e-15 relative.
    """
    return _sample_bidiagonal(cfg, _bidiagonal_max_eig, 8 * (2 * cfg.params.N - 1))


def haar_orthogonal(rng: np.random.Generator, n: int, count: int = 1) -> np.ndarray:
    """Haar-distributed O(n) matrices via QR with the R-diagonal sign fix."""
    g = rng.standard_normal((count, n, n))
    qs, rs = np.linalg.qr(g)
    d = np.sign(np.einsum("kii->ki", rs))
    d[d == 0] = 1.0
    return qs * d[:, None, :]


def haar_unitary(rng: np.random.Generator, n: int, count: int = 1) -> np.ndarray:
    """Haar-distributed U(n) matrices via complex QR with phase-fixed R."""
    g = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))) / math.sqrt(2.0)
    qs, rs = np.linalg.qr(g)
    d = np.einsum("kii->ki", rs)
    d = d / np.abs(d)
    return qs * d[:, None, :]


def sphere_integral_oracle(cfg: McConfig, lambdas) -> tuple[float, float]:
    """MC estimate (mean, standard error) of the sphere representation.

    Averages exp(M tau_tilde sum lambda_j u_j^2) over uniform u on the unit
    sphere and multiplies by the tau-free prefactor prod exp(-M lambda_j / 2).
    Estimates the j.p.d.f.'s group integral up to a constant that cancels in
    ratios, which is how tests consume it.  The eigenvalues must be finite (ConfigError).
    """
    p = cfg.params
    lambdas = _checked(lambdas)
    if lambdas.shape != (p.N,):
        raise ConfigError(f"need exactly N={p.N} eigenvalues")
    rng = _rng(cfg.seed)
    pref = math.exp(-0.5 * p.M * float(np.sum(lambdas)))

    def draw(m):
        g = rng.standard_normal((m, p.N))
        u2 = g**2 / np.sum(g**2, axis=1, keepdims=True)
        return np.exp(p.M * p.tau_tilde * (u2 @ lambdas))

    vals = _chunked(cfg.n_samples, draw, 8 * p.N)
    mean = float(np.mean(vals)) * pref
    se = float(np.std(vals, ddof=1) / math.sqrt(cfg.n_samples)) * pref
    return mean, se


def contour_integral_I(params: ModelParams, lambdas, contour: ContourSpec) -> complex:
    """(1 / 2 pi i) oint e^{M t} prod_j (t - tau_tilde lambda_j)^{-1/2} dt.

    That is `zonal.contour_S` at power 1 and y = tau_tilde, times the same
    prod exp(-M lambda_j / 2) prefactor as the sphere oracle;
    the two agree up to one lambda-independent constant, so tests compare
    ratios across two eigenvalue vectors.
    """
    pref = math.exp(-0.5 * params.M * float(np.sum(lambdas)))
    return pref * contour_S(params.M, lambdas, params.tau_tilde, 1, contour)


def haar_orthogonal_integral(cfg: McConfig, x_eigs, y: float,
                             M: int | None = None) -> tuple[float, float]:
    """MC estimate (mean, SE) of the O(N) integral of e^{-M y sum x_i g_iN^2}.

    The sign convention is the rank-1 group-integral one; pass -y to match
    oracles stated with a positive exponent.  The eigenvalue count may
    differ from cfg.params.N, and M may be overridden: the group integral is
    meaningful for scalars (N, M) that no Wishart ensemble admits.
    """
    return _haar_integral(haar_orthogonal, cfg, x_eigs, y, M)


def haar_unitary_integral(cfg: McConfig, x_eigs, y: float,
                          M: int | None = None) -> tuple[float, float]:
    """Same as haar_orthogonal_integral but over U(N), with |g_iN|^2 weights."""
    return _haar_integral(haar_unitary, cfg, x_eigs, y, M)


def _haar_integral(haar, cfg: McConfig, x_eigs, y: float,
                   M: int | None) -> tuple[float, float]:
    """MC (mean, SE) of e^{-M y sum x_i |g_iN|^2} over g drawn by `haar`, of checked inputs (ConfigError)."""
    M = cfg.params.M if M is None else M
    x_eigs = _checked(x_eigs, y, M)
    if not x_eigs.size:
        raise ConfigError("the group integral needs at least one eigenvalue")
    rng = _rng(cfg.seed)

    def draw(m):
        col = np.abs(haar(rng, x_eigs.size, m)[:, :, -1]) ** 2
        return np.exp(-M * y * (col @ x_eigs))

    vals = _chunked(cfg.n_samples, draw, 16 * x_eigs.size ** 2)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(cfg.n_samples))
