"""The S1 / IS1 kernels, two ways, plus the multi-orthogonality check.

Brute force (the defining sums, with mu the inverse moment matrix):

    S1(x, y)  = - sum_jk r_j(x) w(x) mu_jk eps(r_k w)(y)
    IS1(x, y) = - sum_jk eps(r_j w)(x) mu_jk eps(r_k w)(y)
    dS1(x, y) = - d/dy S1(x, y) = + sum_jk r_j(x) w(x) mu_jk r_k(y) w(y)

S1 is invariant under any invertible change of the monic family r, so the
brute evaluators use plain Laguerre r_j = L_j throughout.

Christoffel-Darboux corrected (the finite-N structure theorem):

    S1(x, y) = K2(x, y)
             + (eps(pi_{N+1,1} w), eps(pi_{N,1} w))(y) . A . (L_{N-2}, L_{N-1})^T(x) w(x)

    A = [[0,                            -M tau_tilde / (2 h_{N-1,0})],
         [-M tau_tilde / (2 h_{N-2,0}), (M t - tau_tilde (M + N)) / (2 h_{N-1,0})]]

(the column really is (L_{N-2}, L_{N-1}); the degree-(2N) variant that
appears in one display upstream is a typo, which the brute-force oracle
confirms).  eps is linear, so the row is the Laguerre coefficients of
(pi_{N+1,1}, pi_{N,1}) times the table's eps(L_j w): both assemblies read one
table, and every whole-rule integral is `HalfLineRule.integrate`.  A is also
reproduced from the skew-product table as C^T B^{-1} where C collects the
expansion coefficients of L_{N-3}, L_{N-4} over (pi_{N+1,1}, pi_{N,1}) and B is
the 2x2 cross Gram; `correction_matrix_from_table` exposes that route for the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSkewProductError
from .laguerre import LaguerreBasis, cd_kernel_k2
from .params import ModelParams, weight_w0
from .quadrature import HalfLineRule, KAPPA_EPSILON
from .skew import SkewPolySet, SkewProductTable, _weighted_laguerre, build_skew_polys

__all__ = [
    "KernelBundle",
    "CdCorrectedKernel",
    "correction_matrix",
    "check_multi_orthogonality",
]


def _as_points(x) -> tuple[np.ndarray, bool]:
    scalar = np.ndim(x) == 0
    return np.atleast_1d(np.asarray(x, dtype=float)), scalar


@dataclass
class KernelBundle:
    """Brute-force S1 / IS1 / dS1 evaluators at fixed t (full half-line).

    Everything is precomputed on the table's quadrature rule; point
    evaluations sample the Laguerre recurrence and the cached epsilon
    transform tables, so grids of any size are cheap.  The bundle holds the
    table (its N rows of L_j w samples, kmax = N - 1, and their epsilon
    transform) and the inverse moment matrix mu.  A 1-D t on a stacked
    `rule` (as in `SkewProductTable`) gives one bundle per t with a t axis
    first in `mu`, `cond`, `factor` and `resolvent_trace`; the kernels
    `s1`, `is1` and `ds1` take a single t.
    """

    table: SkewProductTable
    mu: np.ndarray                 # inverse moment matrix, Laguerre family, (..., N, N)
    cond: float | np.ndarray

    @classmethod
    def build(cls, params: ModelParams, t, table: SkewProductTable | None = None,
              rule: HalfLineRule | None = None) -> "KernelBundle":
        """DegenerateSkewProductError names the first t whose moment matrix is singular;
        the table is built on `rule` (default `rule_for_t(params, t)`) when not given, and a
        given table must reach degree N - 1 (ConfigError)."""
        N = params.N
        if table is None:
            table = SkewProductTable.build(params, t, kmax=N - 1, rule=rule)
        if table.kmax < N - 1:
            raise ConfigError(f"table only reaches degree {table.kmax}, need {N - 1}")
        m = table.entries[..., :N, :N]
        cond = np.linalg.cond(m)
        bad = np.flatnonzero(~(cond <= 1e13))        # NaN and inf count as singular
        if bad.size:
            raise DegenerateSkewProductError(f"moment matrix singular at t={complex(np.ravel(t)[bad[0]])} "
                                             f"(cond ~ {cond.flat[bad[0]]:.2e})")
        return cls(table, np.linalg.inv(m), float(cond) if cond.ndim == 0 else cond)

    @property
    def params(self) -> ModelParams:
        return self.table.params

    @property
    def t(self) -> complex:
        return self.table.t

    def factor(self, x: np.ndarray, eps: bool) -> np.ndarray:
        """(..., N, n) values of eps(L_j w), or L_j w (the Pfaffian route's sampler
        `skew._weighted_laguerre`), at points (..., n), all at once (after a stack's t axis).

        Every kernel is a bilinear form in these two factors through mu, so
        this is the one sampler behind `s1`, `is1`, `ds1` and the Fredholm
        determinant.
        """
        N, flat = self.params.N, x.reshape(-1)
        vals = self.table.eps(flat)[..., :N, :] if eps else _weighted_laguerre(self.params, self.t, flat, N - 1)
        return np.moveaxis(vals.reshape(vals.shape[:-2] + (N,) + x.shape), -1 - x.ndim, -2)

    def _kernel(self, x, y, eps_x: bool, eps_y: bool, scale: float):
        """scale (f(x)^T mu) g(y), f and g each L_j w or eps(L_j w).

        Points (..., nx) and (..., ny) give (..., nx, ny), two scalars a
        complex; when y is x and g = f, the samples are taken once.
        """
        xs, sx = _as_points(x)
        ys, sy = _as_points(y)
        fx = self.factor(xs, eps_x)
        gy = fx if y is x and eps_x == eps_y else self.factor(ys, eps_y)
        out = scale * np.swapaxes(fx, -1, -2) @ self.mu @ gy
        return complex(out[0, 0]) if sx and sy else out

    def s1(self, x, y):
        return self._kernel(x, y, False, True, -1.0)

    def is1(self, x, y):
        return self._kernel(x, y, True, True, -1.0)

    def ds1(self, x, y):
        """-d/dy S1(x, y), the exact termwise derivative (eps' = identity)."""
        return self._kernel(x, y, False, False, 2.0 * KAPPA_EPSILON)

    def s1_diag_nodes(self) -> np.ndarray:
        """S1(x, x) at the rule nodes (for traces and resolvent integrals), from the
        table's samples of L_j w and their epsilon transform."""
        N, eps = self.params.N, self.table.eps
        return -((self.mu @ eps.at_nodes()[..., :N, :]) * eps.fvals[..., :N, :]).sum(-2)

    def trace_s1(self) -> complex:
        """int S1(x, x) dx; equals N and is t-independent."""
        return complex(self.table.rule.integrate(self.s1_diag_nodes()))

    def resolvent_trace(self):
        """int S1(x, x) / (t - tau_tilde x) dx over the half-line, one per t of a stack."""
        rule, t = self.table.rule, self.t
        vals = self.s1_diag_nodes() / (np.reshape(t, np.shape(t) + (1,)) - self.params.tau_tilde * rule.x)
        out = rule.integrate(rule._lift(vals))
        return out[..., 0] if np.ndim(t) else complex(out)


def correction_matrix(params: ModelParams, t: complex, basis: LaguerreBasis) -> np.ndarray:
    """Closed-form 2x2 correction matrix A; entry (0, 0) is exactly zero."""
    N, M, tt = params.N, params.M, params.tau_tilde
    h1 = basis.h(N - 1)
    h2 = basis.h(N - 2)
    return np.array([
        [0.0, -M * tt / (2.0 * h1)],
        [-M * tt / (2.0 * h2), (M * t - tt * (M + N)) / (2.0 * h1)],
    ], dtype=complex)


@dataclass
class CdCorrectedKernel:
    """S1 via the Laguerre CD kernel plus the rank-2 correction, read off one table: the
    correction's row is `hi @ table.eps(y)` and its column (L_{N-2}, L_{N-1}) w(x) the
    sampler of `KernelBundle.factor`; no pi is sampled and no second transform built."""

    table: SkewProductTable
    polys: SkewPolySet
    A: np.ndarray                       # 2x2 correction matrix
    hi: np.ndarray                      # (2, kmax + 1) Laguerre coefficients of (pi_{N+1,1}, pi_{N,1})

    @classmethod
    def build(cls, params: ModelParams, t: complex,
              table: SkewProductTable | None = None) -> "CdCorrectedKernel":
        if table is None:
            table = SkewProductTable.build(params, t)
        polys = build_skew_polys(table)
        N = params.N
        A = correction_matrix(params, complex(t), table.basis)
        hi = np.stack([np.pad(polys.coeffs[d], (0, table.kmax - d)) for d in (N + 1, N)])
        return cls(table, polys, A, hi)

    @property
    def params(self) -> ModelParams:
        return self.table.params

    @property
    def t(self) -> complex:
        return self.table.t

    def correction(self, x, y):
        """The rank-2 term: row(y) . A . (L_{N-2}, L_{N-1})^T(x) w(x)."""
        xs, sx = _as_points(x)
        ys, sy = _as_points(y)
        N = self.params.N
        row = self.hi @ self.table.eps(ys)                                   # (2, ny)
        col = _weighted_laguerre(self.params, self.t, xs, N - 1)[N - 2:]     # (2, nx)
        out = col.T @ self.A.T @ row                                         # (nx, ny)
        return complex(out[0, 0]) if sx and sy else out

    def s1(self, x, y):
        xs, sx = _as_points(x)
        ys, sy = _as_points(y)
        k2 = np.atleast_2d(cd_kernel_k2(self.table.basis, self.t,
                                        xs[:, None], ys[None, :]))
        out = k2 + self.correction(xs, ys)
        return complex(out[0, 0]) if sx and sy else out

    def correction_matrix_from_table(self) -> np.ndarray:
        """A rebuilt as C^T B^{-1} from raw skew products (structure check)."""
        N = self.params.N
        g = self.table.entries
        basis = self.table.basis
        M, tt = self.params.M, self.params.tau_tilde
        h1, h2 = basis.h(N - 1), basis.h(N - 2)
        C = np.empty((2, 2), dtype=complex)
        for i, l in ((0, 3), (1, 4)):
            C[i, 0] = -M * tt * g[N - 1, N - l] / (2.0 * h1)
            C[i, 1] = ((M * self.t - tt * (M + N)) * g[N - 1, N - l] / (2.0 * h1)
                       - M * tt * g[N - 2, N - l] / (2.0 * h2))
        B = np.array([[g[N - 2, N - 3], g[N - 2, N - 4]],
                      [g[N - 1, N - 3], g[N - 1, N - 4]]], dtype=complex)
        return C.T @ np.linalg.inv(B)


def check_multi_orthogonality(params: ModelParams, t: complex) -> dict:
    """Solve the type-II multi-orthogonality system and report residuals.

    The polynomials P_l (l = 1, 2) have degree N - 1, are w0-orthogonal to
    x^m for m <= N - 3, and satisfy int P_l w_m dx = -2 pi i delta_{lm} with
    w_m = w * eps-kernel smoothing of L_{N-m-2} w.  Solvability is governed
    by the cross pivot <L_{N-1}, L_{N-2}>_1, through which the reduced system
    factors: reduced_det = cmat_det * pivot^2.
    """
    N = params.N
    if N < 4:
        raise ConfigError("multi-orthogonality check needs N >= 4")
    table = SkewProductTable.build(params, t)
    rule, eps = table.rule, table.eps
    lag_w0 = table.basis.eval_all(rule.x)[:N] * weight_w0(params, rule.x)

    # rows 0..N-3: <P, x^m>_2 = 0 ; rows N-2, N-1: int P w_l = -2 pi i delta,
    # w_l = w eps(L_{N-l-2} w), with P w read off the table's samples of L_j w
    A = np.empty((N, N), dtype=complex)
    A[:N - 2] = rule.integrate(rule.x ** np.arange(N - 2)[:, None, None] * lag_w0)
    A[N - 2:] = rule.integrate(eps.at_nodes()[[N - 3, N - 4], None] * eps.fvals[:N])
    rhs = np.zeros((N, 2), dtype=complex)
    rhs[N - 2, 0] = rhs[N - 1, 1] = -2.0j * np.pi

    sol = np.linalg.solve(A, rhs)
    residual = A @ sol - rhs
    res_scale = max(float(np.max(np.abs(A))), 2.0 * np.pi)

    # The moment rows restricted to span(L_{N-2}, L_{N-1}) factor as
    # S2 = C . J(pivot) with J(p) = [[0, p], [-p, 0]]; C stays invertible, so
    # the system degenerates exactly when the pivot does.
    S2 = A[N - 2:, N - 2:]
    gram_pivot = table.entries[N - 1, N - 2]
    gram = np.array([[0.0, gram_pivot], [-gram_pivot, 0.0]], dtype=complex)
    cmat = S2 @ np.linalg.inv(gram)
    return {
        "t": complex(t),
        "coefficients": sol,
        "max_residual": float(np.max(np.abs(residual))),
        "residual_scale": float(res_scale),
        "system_det": complex(np.linalg.det(A)),
        "reduced_det": complex(np.linalg.det(S2)),
        "gram_pivot": complex(gram_pivot),
        "cmat_det": complex(np.linalg.det(cmat)),
        "moment_values": (A[N - 2:, :] @ sol),
    }
