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
confirms).  A is also reproduced from the skew-product table as C^T B^{-1}
where C collects the expansion coefficients of L_{N-3}, L_{N-4} over
(pi_{N+1,1}, pi_{N,1}) and B is the 2x2 cross Gram; `correction_matrix_from_table`
exposes that route for the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateSkewProductError
from .laguerre import LaguerreBasis, cd_kernel_k2
from .params import ModelParams, weight_w
from .quadrature import EpsilonTransform, KAPPA_EPSILON
from .skew import SkewPolySet, SkewProductTable, build_skew_polys

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
    transform tables, so grids of any size are cheap.
    """

    table: SkewProductTable
    mu: np.ndarray                 # inverse moment matrix, Laguerre family
    cond: float

    @classmethod
    def build(cls, params: ModelParams, t: complex,
              basis: LaguerreBasis | None = None,
              n_panels: int = 24, q: int = 16,
              table: SkewProductTable | None = None) -> "KernelBundle":
        if table is None:
            table = SkewProductTable.build(params, t, basis=basis,
                                           n_panels=n_panels, q=q)
        N = params.N
        m = table.entries[:N, :N]
        cond = float(np.linalg.cond(m))
        if not np.isfinite(cond) or cond > 1e13:
            raise DegenerateSkewProductError(
                f"moment matrix singular at t={t} (cond ~ {cond:.2e})")
        mu = np.linalg.inv(m)
        return cls(table, mu, cond)

    @property
    def params(self) -> ModelParams:
        return self.table.params

    @property
    def t(self) -> complex:
        return self.table.t

    def _sample(self, x: np.ndarray, eps: bool) -> np.ndarray:
        """(..., N, n) values of eps(L_j w), or L_j w, at points (..., n), all at once."""
        N, flat = self.params.N, x.reshape(-1)
        vals = (self.table.eps(flat)[:N] if eps else
                self.table.basis.eval_all(flat)[:N] * weight_w(self.params, self.t, flat))
        return np.moveaxis(vals.reshape((N,) + x.shape), 0, -2)

    def _kernel(self, x, y, eps_x: bool, eps_y: bool, scale: float):
        """scale (f(x)^T mu) g(y), f and g each L_j w or eps(L_j w).

        Points (..., nx) and (..., ny) give (..., nx, ny), two scalars a
        complex; when y is x and g = f, the samples are taken once.
        """
        xs, sx = _as_points(x)
        ys, sy = _as_points(y)
        fx = self._sample(xs, eps_x)
        gy = fx if y is x and eps_x == eps_y else self._sample(ys, eps_y)
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
        """S1(x, x) at the rule nodes (for traces and resolvent integrals)."""
        N = self.params.N
        phi = self.table.lag[:N] * self.table.wvals
        epsn = self.table.eps.at_nodes()[:N]
        return -np.einsum("jn,jk,kn->n", phi, self.mu, epsn)

    def trace_s1(self) -> complex:
        """int S1(x, x) dx; equals N and is t-independent."""
        return complex(self.s1_diag_nodes() @ self.table.rule.w)

    def resolvent_trace(self) -> complex:
        """int S1(x, x) / (t - tau_tilde x) dx over the half-line."""
        rule = self.table.rule
        vals = self.s1_diag_nodes() / (self.t - self.params.tau_tilde * rule.x)
        return complex(vals @ rule.w)


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
    """S1 via the Laguerre CD kernel plus the rank-2 correction."""

    table: SkewProductTable
    polys: SkewPolySet
    A: np.ndarray                       # 2x2 correction matrix
    eps_hi: EpsilonTransform = field(repr=False)   # of the stack (pi_{N+1,1} w, pi_{N,1} w)

    @classmethod
    def build(cls, params: ModelParams, t: complex,
              basis: LaguerreBasis | None = None,
              n_panels: int = 24, q: int = 16,
              table: SkewProductTable | None = None) -> "CdCorrectedKernel":
        if table is None:
            table = SkewProductTable.build(params, t, basis=basis,
                                           n_panels=n_panels, q=q)
        polys = build_skew_polys(table)
        N = params.N
        A = correction_matrix(params, complex(t), table.basis)
        hi = np.stack([polys.values(N + 1), polys.values(N)])
        eps_hi = EpsilonTransform(table.rule, hi * table.wvals)
        return cls(table, polys, A, eps_hi)

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
        row = self.eps_hi(ys)                                      # (2, ny)
        lag = self.table.basis.eval_all(xs)
        col = np.stack([lag[N - 2], lag[N - 1]])                   # (2, nx)
        col = col * np.atleast_1d(weight_w(self.params, self.t, xs))
        out = col.T @ self.A.T @ row                               # (nx, ny)
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


def check_multi_orthogonality(params: ModelParams, t: complex,
                              n_panels: int = 24, q: int = 16) -> dict:
    """Solve the type-II multi-orthogonality system and report residuals.

    The polynomials P_l (l = 1, 2) have degree N - 1, are w0-orthogonal to
    x^m for m <= N - 3, and satisfy int P_l w_m dx = -2 pi i delta_{lm} with
    w_m = w * eps-kernel smoothing of L_{N-m-2} w.  Solvability is governed
    by the cross pivot <L_{N-1}, L_{N-2}>_1: the system matrix factors
    through the skew Gram of (L_{N-2}, L_{N-1}), so zeroing that pivot makes
    it singular (reported as `det_with_pivot_zeroed`).
    """
    N = params.N
    if N < 4:
        raise ConfigError("multi-orthogonality check needs N >= 4")
    table = SkewProductTable.build(params, t, n_panels=n_panels, q=q)
    rule, basis = table.rule, table.basis
    lag = table.lag
    eps_nodes = table.eps.at_nodes()
    w0v = np.exp(-params.M * rule.x) * rule.x ** params.alpha

    # rows 0..N-3: <P, x^m>_2 = 0 ; rows N-2, N-1: int P w_l = -2 pi i delta
    A = np.zeros((N, N), dtype=complex)
    for m in range(N - 2):
        A[m, :] = ((rule.x ** m) * w0v * lag[:N]) @ rule.w
    for li, l in enumerate((1, 2)):
        wm = table.wvals * eps_nodes[N - l - 2]   # w_l = w * eps(L_{N-l-2} w)
        A[N - 2 + li, :] = (wm * lag[:N]) @ rule.w
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
        "det_with_pivot_zeroed": complex(np.linalg.det(cmat @ (0.0 * gram))),
        "moment_values": (A[N - 2:, :] @ sol),
    }
