"""The two bilinear forms, skew-orthogonal polynomials, and Pfaffians.

The skew product at fixed contour variable t (optionally truncated to
[0, z]^2) is

    <f, g>_1 = int int (1/2) sgn(x - y) f(x) g(y) w(x; t) w(y; t) dx dy

and collapses to a single integral through the epsilon transform:
<f, g>_1 = int f w eps(g w).  `skew_gram` is the one place that forms
these products: one batched epsilon transform of every sampled f w, then
the antisymmetrised table 0.5 * (raw - raw^T), so <f, f>_1 = 0 holds to
roundoff by construction.

The companion form <f, g>_2 = int f g w0 is the plain Laguerre pairing.
The two are linked by the integration-by-parts identity

    <f, H_j>_1 = <f, x^j>_2,
    H_j(x) = d/dx( x^(j+1) (t - tau_tilde x) w(x) ) / w(x),

whose degree-(j+2) coefficients are expanded programmatically from the
product rule (never hand-typed).

Skew-orthogonal polynomials pi_{k,1} come out of the 2x2 elimination over
neighbouring Laguerre pairs; the free constant in the odd-degree member is
fixed to zero, which is the choice the rank-2 kernel correction formula is
derived under.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ConfigError, DegenerateSkewProductError
from .laguerre import LaguerreBasis, build_basis
from .params import ModelParams, mp_edges, weight_w, weight_w0
from .quadrature import EpsilonTransform, HalfLineRule, half_line_rule

__all__ = [
    "default_xmax",
    "rule_for_t",
    "skew_gram",
    "SkewProductTable",
    "SkewPolySet",
    "MomentMatrix",
    "skew_product",
    "inner_product_2",
    "h_poly",
    "build_skew_polys",
    "moment_matrix",
    "pfaffian",
]

#: relative threshold below which a pivot skew product counts as degenerate
DEGENERACY_TOL = 1e-11


def default_xmax(params: ModelParams) -> float:
    """Half-line truncation: 4x the upper bulk edge plus a 40/M safety tail.

    The weights decay like exp(-M x / 2) regardless of tau, so the neglected
    tail is ~exp(-2 M b_plus - 20) relative to the retained mass.
    """
    _, b_plus = mp_edges(params.gamma)
    return 4.0 * b_plus + 40.0 / params.M


def rule_for_t(params: ModelParams, t: complex, xmax: float | None = None,
               n_panels: int = 24, q: int = 16) -> HalfLineRule:
    """Quadrature rule on [0, xmax] adapted to the weight's branch point.

    For t near the positive real axis the factor (t - tau_tilde x)^(-1/2)
    peaks at x = Re t / tau_tilde with width |Im t| / tau_tilde; panels
    cluster there down to that width (never finer, so no sample sits closer
    to the peak than its own scale).
    """
    if xmax is None:
        xmax = default_xmax(params)
    tt = params.tau_tilde
    refine_x = refine_width = None
    if tt > 0 and 0.0 < t.real and t.real / tt < 1.1 * xmax:
        x_star = t.real / tt
        width_x = abs(t.imag) / (10.0 * tt)
        u_star = math.sqrt(x_star)
        refine_x = x_star
        refine_width = max(width_x / (2.0 * u_star) if u_star > 0 else width_x, 1e-8)
    return half_line_rule(xmax, n_panels=n_panels, q=q,
                          refine_x=refine_x, refine_width=refine_width)


def skew_gram(rule: HalfLineRule, phi) -> tuple[np.ndarray, EpsilonTransform]:
    """Skew Gram of sampled functions phi_j (rows of `phi`, at the rule nodes).

    Returns the antisymmetric matrix 0.5 * (raw - raw^T) with
    raw[i, j] = int phi_i eps(phi_j), and the batched epsilon transform of
    all the phi_j, which callers reuse for point evaluations.
    """
    eps = EpsilonTransform(rule, phi)
    raw = (phi * rule.w) @ eps.at_nodes().T
    return 0.5 * (raw - raw.T), eps


@dataclass
class SkewProductTable:
    """Entries <L_i, L_j>_1 for 0 <= i, j <= kmax at fixed (t, z).

    Also caches the sampled weight, Laguerre values and the batched epsilon
    transform of the L_j w, which every kernel evaluation reuses.
    """

    params: ModelParams
    t: complex
    z: float                      # truncation; inf means the full half-line
    basis: LaguerreBasis
    rule: HalfLineRule
    entries: np.ndarray           # (kmax+1, kmax+1) complex, antisymmetric
    wvals: np.ndarray             # w(x_i; t) at rule nodes
    lag: np.ndarray               # (kmax+1, n_nodes) Laguerre values
    eps: EpsilonTransform         # batched over the L_j w: eps(x) is (kmax+1, len(x))

    @classmethod
    def build(cls, params: ModelParams, t: complex, kmax: int | None = None,
              z: float = math.inf, basis: LaguerreBasis | None = None,
              n_panels: int = 24, q: int = 16) -> "SkewProductTable":
        if kmax is None:
            kmax = params.N + 1
        if basis is None:
            basis = build_basis(params, max(kmax, params.N + 2))
        xmax = default_xmax(params) if not math.isfinite(z) else float(z)
        rule = rule_for_t(params, complex(t), xmax=xmax, n_panels=n_panels, q=q)
        wv = weight_w(params, complex(t), rule.x)
        lag = basis.eval_all(rule.x)[: kmax + 1]
        entries, eps = skew_gram(rule, lag * wv)
        return cls(params, complex(t), z, basis, rule, entries, wv, lag, eps)

    @property
    def kmax(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.entries)))

    def pair(self, i: int, j: int) -> complex:
        return complex(self.entries[i, j])

    def bilinear(self, ci, cj) -> complex:
        """<p, q>_1 for polynomials given by Laguerre-basis coefficients."""
        ci = np.asarray(ci, dtype=complex)
        cj = np.asarray(cj, dtype=complex)
        return complex(ci @ self.entries[: len(ci), : len(cj)] @ cj)


def skew_product(params: ModelParams, fcoef, gcoef, t: complex,
                 z: float = math.inf, n_panels: int = 24, q: int = 16) -> complex:
    """<f, g>_1 for monomial-coefficient polynomials f, g (ascending coeffs)."""
    xmax = default_xmax(params) if not math.isfinite(z) else float(z)
    rule = rule_for_t(params, complex(t), xmax=xmax, n_panels=n_panels, q=q)
    wv = weight_w(params, complex(t), rule.x)
    fg = np.stack([P.polyval(rule.x, np.asarray(c, dtype=complex)) for c in (fcoef, gcoef)])
    return complex(skew_gram(rule, fg * wv)[0][0, 1])


def inner_product_2(params: ModelParams, fcoef, gcoef,
                    rule: HalfLineRule | None = None) -> complex:
    """<f, g>_2 = int f g w0 for monomial-coefficient polynomials."""
    if rule is None:
        rule = half_line_rule(default_xmax(params))
    vals = (P.polyval(rule.x, np.asarray(fcoef, dtype=complex))
            * P.polyval(rule.x, np.asarray(gcoef, dtype=complex))
            * weight_w0(params, rule.x))
    return complex(vals @ rule.w)


def h_poly(params: ModelParams, j: int, t: complex) -> np.ndarray:
    """Monomial coefficients (ascending) of H_j(x), degree j + 2.

    Expanded from H_j = P' + P * (w'/w) with P = x^(j+1) (t - tau_tilde x)
    and w'/w = -M/2 + (M-N-1)/(2x) + tau_tilde/(2 (t - tau_tilde x)); both
    rational pieces cancel against P, leaving pure polynomial algebra.
    """
    if j < 0:
        raise ConfigError("j must be >= 0")
    if params.alpha <= 0:
        raise ConfigError("H_j requires M - N > 0")
    tt = params.tau_tilde
    M = params.M
    Ppoly = np.zeros(j + 3, dtype=complex)
    Ppoly[j + 1] = t
    Ppoly[j + 2] = -tt
    out = np.zeros(j + 3, dtype=complex)
    out[: j + 2] += P.polyder(Ppoly)                     # P'
    out += -0.5 * M * Ppoly                              # -M/2 * P
    out[j: j + 2] += 0.5 * (M - params.N - 1) * np.array([t, -tt])  # (M-N-1)/(2x) * P
    out[j + 1] += 0.5 * tt                               # tau_tilde/(2(t - tt x)) * P
    return out


@dataclass
class SkewPolySet:
    """Laguerre-basis coefficients of pi_{N-2,1} .. pi_{N+1,1} at fixed t.

    coeffs[d] has length d + 1: pi_{d,1} = sum_k coeffs[d][k] L_k, monic.
    h_skew is h_{N-1,1} = <pi_{N-2,1}, pi_{N-1,1}>_1.
    """

    params: ModelParams
    t: complex
    coeffs: dict[int, np.ndarray]
    h_skew: complex
    table: SkewProductTable = field(repr=False)

    def values(self, d: int, x=None) -> np.ndarray:
        """pi_{d,1} sampled at the table's rule nodes (or given points)."""
        c = self.coeffs[d]
        lag = self.table.lag if x is None else self.table.basis.eval_all(x)
        return np.tensordot(c, lag[: len(c)], axes=(0, 0))


def _pair_coeffs(table: SkewProductTable, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(p2N) construction of the degree-2k and degree-(2k+1) members."""
    if k == 0:
        return np.array([1.0 + 0j]), np.array([0.0, 1.0 + 0j])
    g = table.entries
    pivot = g[2 * k - 1, 2 * k - 2]
    if abs(pivot) < DEGENERACY_TOL * max(table.scale, 1e-300):
        raise DegenerateSkewProductError(
            f"<L_{2*k-1}, L_{2*k-2}>_1 = {pivot:.3e} at t = {table.t}")
    even = np.zeros(2 * k + 1, dtype=complex)
    even[2 * k] = 1.0
    even[2 * k - 1] = -g[2 * k, 2 * k - 2] / pivot
    odd = np.zeros(2 * k + 2, dtype=complex)
    odd[2 * k + 1] = 1.0
    odd[2 * k - 1] = -g[2 * k + 1, 2 * k - 2] / pivot
    odd[2 * k - 2] = g[2 * k + 1, 2 * k - 1] / pivot
    return even, odd


def build_skew_polys(table: SkewProductTable) -> SkewPolySet:
    """pi_{N-2,1}, pi_{N-1,1}, pi_{N,1}, pi_{N+1,1} with free constant c = 0."""
    N = table.params.N
    if table.kmax < N + 1:
        raise ConfigError(f"table only reaches degree {table.kmax}, need {N + 1}")
    coeffs: dict[int, np.ndarray] = {}
    coeffs[N - 2], coeffs[N - 1] = _pair_coeffs(table, (N - 2) // 2)
    coeffs[N], coeffs[N + 1] = _pair_coeffs(table, N // 2)
    h_skew = table.bilinear(coeffs[N - 2], coeffs[N - 1])
    return SkewPolySet(table.params, table.t, coeffs, h_skew, table)


@dataclass
class MomentMatrix:
    """Antisymmetric N x N matrix <r_j, r_k>_1 for a monic family r.

    basis_kind "laguerre" uses r_j = L_j throughout (t-independent); "pi"
    swaps the top two for the skew-orthogonal pair, which block-diagonalises
    the matrix with lower-right h_{N-1,1} * [[0, 1], [-1, 0]].
    """

    params: ModelParams
    t: complex
    z: float
    basis_kind: str
    entries: np.ndarray


def moment_matrix(table: SkewProductTable, polyset: SkewPolySet | None = None,
                  basis_kind: str = "laguerre") -> MomentMatrix:
    N = table.params.N
    core = table.entries[:N, :N]
    if basis_kind == "laguerre":
        entries = core.copy()
    elif basis_kind == "pi":
        if polyset is None:
            polyset = build_skew_polys(table)
        B = np.eye(N, dtype=complex)
        B[N - 2, : N - 1] = polyset.coeffs[N - 2]
        B[N - 1, : N] = polyset.coeffs[N - 1]
        entries = B @ core @ B.T
    else:
        raise ConfigError(f"unknown basis_kind {basis_kind!r}")
    return MomentMatrix(table.params, table.t, table.z, basis_kind, entries)


def pfaffian(A: np.ndarray, antisym_tol: float = 1e-10) -> complex:
    """Pfaffian of an even-dimensional antisymmetric matrix.

    Parlett-Reid style elimination with partial pivoting: each step pins the
    largest element of the working column into the (k+1, k) slot (row+column
    swap, flipping the sign) and clears the rest with a unit congruence,
    which leaves the Pfaffian invariant.  Convention: Pf([[0, a], [-a, 0]]) = a.
    """
    A = np.array(A, dtype=complex)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise ConfigError("pfaffian needs a square matrix")
    if n % 2:
        raise ConfigError("pfaffian needs even dimension")
    norm = np.max(np.abs(A)) if n else 0.0
    if norm > 0 and np.max(np.abs(A + A.T)) > antisym_tol * norm:
        raise ConfigError("matrix is not antisymmetric within tolerance")
    if n == 0:
        return 1.0 + 0j
    pf = 1.0 + 0j
    for k in range(0, n - 2, 2):
        col = np.abs(A[k + 1:, k])
        ip = k + 1 + int(np.argmax(col))
        if col.max() == 0.0:
            return 0j
        if ip != k + 1:
            A[[k + 1, ip], :] = A[[ip, k + 1], :]
            A[:, [k + 1, ip]] = A[:, [ip, k + 1]]
            pf = -pf
        pf *= A[k, k + 1]
        tau = A[k + 2:, k] / A[k + 1, k]
        row = A[k + 1, k + 2:]
        A[k + 2:, k + 2:] += np.outer(row, tau) - np.outer(tau, row)
    return pf * A[n - 2, n - 1]
