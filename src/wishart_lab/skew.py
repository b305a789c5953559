"""The two bilinear forms, skew-orthogonal polynomials, and Pfaffians.

The skew product at fixed contour variable t (optionally truncated to
[0, z]^2) is

    <f, g>_1 = int int (1/2) sgn(x - y) f(x) g(y) w(x; t) w(y; t) dx dy

and collapses to a single integral of running integrals: with F, G the
integrals of f w, g w from 0, <f, g>_1 = (1/2) int_0^z (f w G - g w F).
`SkewProductTable` and `skew_product` form them for sampled f w through the
epsilon transform's `truncated_gram`, read off its z-free table of antisymmetrised
running sums (`EpsilonTransform.gram_rows`), so <f, f>_1 = 0 exactly.  The CDF
engine keeps that table per contour node and reads it through the same code.

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

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ConfigError, DegenerateSkewProductError, check_count
from .laguerre import LaguerreBasis, build_basis
from .params import ModelParams, mp_edges, weight_w, weight_w0
from .quadrature import EpsilonTransform, HalfLineRule, _from_edges, _panel_edges, _upper, half_line_rule

__all__ = [
    "default_xmax",
    "rule_for_t",
    "SkewProductTable",
    "SkewPolySet",
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

    The null weights decay like exp(-M x / 2), but the spiked eigenvalue's tail decays more
    slowly, about like exp(-M x / (2 (1 + tau))), so the cut drops real mass at large tau: at
    (8, 32, 3), 24 of 4e6 draws of `sample_wishart_max_eig(McConfig(4242, 4_000_000, p))` lie
    above xmax = 10.25, a tail of 6.0e-6 +- 1.2e-6.
    """
    _, b_plus = mp_edges(params.gamma)
    return 4.0 * b_plus + 40.0 / params.M


def rule_for_t(params: ModelParams, t: complex, n_panels: int = 24, q: int = 16) -> HalfLineRule:
    """Quadrature rule on [0, default_xmax] adapted to the weight's branch point.

    For t near the positive real axis the factor (t - tau_tilde x)^(-1/2)
    peaks at x = Re t / tau_tilde with width |Im t| / tau_tilde; panels
    cluster there down to that width (never finer, so no sample sits closer
    to the peak than its own scale).  The edges are t's row of `quadrature._panel_edges`,
    which gives a CDF engine every node's edges in one call.  t must be one finite complex
    number (ConfigError otherwise): a 1-D t needs a stacked rule (`HalfLineRule.stack`).
    """
    if np.ndim(t):
        raise ConfigError(f"rule_for_t takes one t, got shape {np.shape(t)}: "
                          "a 1-D t needs a stacked rule, one per t (HalfLineRule.stack)")
    if not np.isfinite(t):
        raise ConfigError(f"rule_for_t needs a finite t, got {t!r}")
    xmax, *refine = _refinement(params, np.array([t], dtype=complex))
    return _from_edges(xmax, _panel_edges(xmax, *refine, check_count("n_panels", n_panels, 2))[0], q)


def _refinement(params: ModelParams, t: np.ndarray):
    """default_xmax, and at each t of a 1-D t the weight's branch point Re t / tau_tilde and its
    peak's width taken in u = sqrt(x), NaN where Re t <= 0 or tau = 0: from them
    `quadrature._panel_edges` decides which rules to refine and gives every rule's u-edges."""
    xmax, tt = default_xmax(params), params.tau_tilde
    if tt == 0:
        nan = np.full(t.shape, np.nan)
        return xmax, nan, nan
    x = np.where(t.real > 0.0, t.real / tt, np.nan)
    return xmax, x, np.maximum(np.abs(t.imag) / (10.0 * tt) / (2.0 * np.sqrt(x)), 1e-8)


def _weighted_laguerre(params: ModelParams, t, x, kmax: int) -> np.ndarray:
    """L_0 .. L_kmax times w(x; t) at points x (..., n), one t per row of x: (..., kmax + 1, n).
    The one sampler of the truncated Grams' functions, on a whole rule or on one panel's nodes."""
    wv = weight_w(params, t[..., None] if np.ndim(t) else t, x)
    lag = build_basis(params, max(kmax, params.N + 2)).eval_all(x, kmax)
    return np.swapaxes(lag, 0, -2) * wv[..., None, :]


@dataclass
class SkewProductTable:
    """Entries <L_i, L_j>_1 for 0 <= i, j <= kmax at fixed t over [0, z]^2, z the truncation
    given to `build` (inf, its default, is the full half-line).

    A 1-D z stacks the truncations, all read off one z-free `rule` (default
    `rule_for_t(params, t)`); a 1-D t and a stacked `rule`, one rule per t, put a
    t axis first.  `basis` is the process's shared `build_basis` of the params.
    Besides the entries it keeps one array of samples, the L_j w in `eps.fvals`,
    with their batched epsilon transform, which kernels reuse; the Laguerre values
    and the weight they were multiplied from are not kept.
    """

    params: ModelParams
    t: complex | np.ndarray
    basis: LaguerreBasis
    rule: HalfLineRule
    entries: np.ndarray           # (kmax+1, kmax+1) antisymmetric, stacked over a 1-D z
    eps: EpsilonTransform         # of the L_j w, (kmax+1, n_nodes) in eps.fvals: eps(x) is (kmax+1, len(x))

    @classmethod
    def build(cls, params: ModelParams, t: complex, kmax: int | None = None,
              z: float = math.inf, rule: HalfLineRule | None = None) -> "SkewProductTable":
        kmax = params.N + 1 if kmax is None else check_count("kmax", kmax, 1)
        t = t.astype(complex) if isinstance(t, np.ndarray) else complex(t)
        rule = rule_for_t(params, t) if rule is None else rule
        eps = EpsilonTransform(rule, _weighted_laguerre(params, t, rule.x, kmax))
        return cls(params, t, build_basis(params, max(kmax, params.N + 2)), rule, eps.truncated_gram(z), eps)

    @property
    def kmax(self) -> int:
        return self.entries.shape[-1] - 1

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.entries)))

    def bilinear(self, ci, cj) -> complex:
        """<p, q>_1 for polynomials given by Laguerre-basis coefficients."""
        ci = np.asarray(ci, dtype=complex)
        cj = np.asarray(cj, dtype=complex)
        return complex(ci @ self.entries[: len(ci), : len(cj)] @ cj)


def skew_product(params: ModelParams, fcoef, gcoef, t: complex, z: float = math.inf) -> complex:
    """<f, g>_1 for monomial-coefficient polynomials f, g (ascending coeffs)."""
    rule = rule_for_t(params, complex(t))
    wv = weight_w(params, complex(t), rule.x)
    fg = np.stack([P.polyval(rule.x, np.asarray(c, dtype=complex)) for c in (fcoef, gcoef)])
    return complex(EpsilonTransform(rule, fg * wv).truncated_gram(z)[0, 1])


def inner_product_2(params: ModelParams, fcoef, gcoef,
                    rule: HalfLineRule | None = None) -> complex:
    """<f, g>_2 = int f g w0 for monomial-coefficient polynomials."""
    if rule is None:
        rule = half_line_rule(default_xmax(params))
    vals = (P.polyval(rule.x, np.asarray(fcoef, dtype=complex))
            * P.polyval(rule.x, np.asarray(gcoef, dtype=complex))
            * weight_w0(params, rule.x))
    return complex(rule.integrate(vals))


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
    h_skew is h_{N-1,1} = <pi_{N-2,1}, pi_{N-1,1}>_1.  The pi are never sampled:
    anything of pi w is these coefficients times the table's L_j w, or their eps.
    """

    params: ModelParams
    t: complex
    coeffs: dict[int, np.ndarray]
    h_skew: complex


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
    return SkewPolySet(table.params, table.t, coeffs, h_skew)


def moment_matrix(table: SkewProductTable, polyset: SkewPolySet | None = None,
                  basis_kind: str = "laguerre") -> np.ndarray:
    """Antisymmetric N x N matrix <r_j, r_k>_1 for a monic family r.

    basis_kind "laguerre" uses r_j = L_j throughout (t-independent); "pi"
    swaps the top two for the skew-orthogonal pair, which block-diagonalises
    the matrix with lower-right h_{N-1,1} * [[0, 1], [-1, 0]].
    """
    N = table.params.N
    core = table.entries[:N, :N]
    if basis_kind == "laguerre":
        return core.copy()
    if basis_kind != "pi":
        raise ConfigError(f"unknown basis_kind {basis_kind!r}")
    if polyset is None:
        polyset = build_skew_polys(table)
    B = np.eye(N, dtype=complex)
    B[N - 2, : N - 1] = polyset.coeffs[N - 2]
    B[N - 1, : N] = polyset.coeffs[N - 1]
    return B @ core @ B.T


def pfaffian(A: np.ndarray):
    """Pfaffians of a stack (..., n, n) of even-dimensional antisymmetric matrices (to 1e-10
    of each matrix's largest entry, and finite, else ConfigError), by `_eliminate` of their
    packed strict upper triangles, taken as the negated lower ones (-A[j, i], i < j), so the
    pivot column is read as A holds it.  2-D input gives a complex; Pf([[0, a], [-a, 0]]) = a."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] % 2:
        raise ConfigError(f"pfaffian needs square matrices of even dimension, got {A.shape}")
    lead, n = A.shape[:-2], A.shape[-1]
    A = np.moveaxis(A.reshape((math.prod(lead), n, n)), 0, -1)
    if not np.isfinite(A).all():
        raise ConfigError("matrix has a non-finite entry")
    norm = np.abs(A).max(axis=(0, 1), initial=0.0)
    if np.any(np.abs(A + np.swapaxes(A, 0, 1)).max(axis=(0, 1), initial=0.0) > 1e-10 * norm):
        raise ConfigError("matrix is not antisymmetric within tolerance")
    a, c = _upper(n)
    pf = _eliminate(-A[c, a])
    return complex(pf[0]) if not lead else pf.reshape(lead)


def _eliminate(A: np.ndarray) -> np.ndarray:
    """Pfaffians (lanes,) of the antisymmetric n x n matrices whose strict upper triangles, in the
    order of `_upper`, are the columns of A (n (n - 1) / 2, lanes), which it overwrites: Parlett-Reid
    elimination with partial pivoting over every lane at once (Wimmer, ACM TOMS 38, 2012).  At each
    step of the trailing m x m block, row 0 (A[:m - 1]) is the working column negated, row 1 follows it,
    and the trailing (m - 2) x (m - 2) triangle is the tail A[2m - 3:], updated in place by
    row[I] tau[J] - tau[I] row[J] over its upper indices (I, J).  A lane whose largest working entry
    is off the natural pivot swaps it into place (flipping the sign) by `_swap`; a zero column gives 0."""
    pf = np.ones(A.shape[-1], dtype=complex)
    m = (1 + math.isqrt(8 * len(A) + 1)) // 2
    while m > 2:
        ip = np.abs(A[:m - 1]).argmax(axis=0)
        if ip.any():                                  # pivoting is rare: one gather per pivot row
            moved = np.flatnonzero(ip)
            for p in set(ip[moved].tolist()):
                lanes = moved[ip[moved] == p]
                perm, sign = _swap(m, p + 1)
                A[:, lanes] = A[perm[:, None], lanes] * sign[:, None]
            pf[moved] = -pf[moved]
        piv = A[0]                                    # a zero pivot makes the lane's Pf 0
        # not pf *= piv: numpy rounds an in-place complex product on one lane differently, and a
        # lane's value must not depend on the size of its block
        pf = pf * piv
        tau = A[1:m - 1] / np.where(piv == 0, 1.0, piv)
        row, A = A[m - 1:2 * m - 3], A[2 * m - 3:]
        I, J = _upper(m - 2)
        upd = row[I] * tau[J]
        upd -= tau[I] * row[J]
        A += upd
        m -= 2
    return pf * A[0] if len(A) else pf


@functools.cache
def _swap(m: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The packed strict upper triangle of an m x m antisymmetric matrix with rows and columns 1 and p
    swapped, as a gather and signs (new = sign * old[perm]), built once per (m, p) and read-only."""
    a, c = _upper(m)
    s = np.arange(m)
    s[[1, p]] = p, 1
    at = np.empty((m, m), dtype=np.intp)
    at[a, c] = at[c, a] = np.arange(len(a))
    perm, sign = at[s[a], s[c]], np.where(s[a] < s[c], 1.0, -1.0)
    for x in (perm, sign):
        x.setflags(write=False)
    return perm, sign
