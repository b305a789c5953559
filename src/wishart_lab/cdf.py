"""Largest-eigenvalue CDF via Pfaffians and via Fredholm determinants.

Primary route.  The ordered eigenvalue integral truncated at z equals (up to
a z- and t-independent constant) the Pfaffian of the truncated moment matrix
<(1 - chi_[z,inf)) L_j, (1 - chi_[z,inf)) L_k>_1, so

    P(lambda_max < z)  =  oint e^{M t} Pf(Mtrunc(t, z)) dt
                          -----------------------------------
                          oint e^{M t} Pf(Mtrunc(t, z_inf)) dt

with z_inf a far-tail anchor where the CDF is 1.  The unknown normalisation
constant of the de Bruijn identity and of the eigenvalue density both cancel
in this ratio, which is how they are fixed ("never computed from first
principles").  Any monic family gives the same Pfaffian (unit-triangular
congruence), so the truncated matrices are built straight from Laguerre.

Cross-check route.  Pf(Mtrunc)^2 = det M(t) * det(I - K chi_[z,inf)) where K
is the 2x2 matrix kernel

    [[S1(x, y),                -dS1/dy(x, y)],
     [IS1(x, y) - eps(x - y),  S1(y, x)]]

*including* the eps(x - y) = sgn(x - y)/2 subtraction in the lower-left
entry (the factorisation is an identity only with it; the test suite checks
det M * det(I - K chi) = Pf(Mtrunc)^2 directly).  sqrt(det M(t)) enters
through the logarithmic derivative

    d/dt log det M(t) = - int S1(x, x) / (t - tau_tilde x) dx

(note the sign: it is forced by the tau = 0 reduction, where w carries a
global t^(-1/2) so log det M = -N log t + const), integrated along straight
chords between adjacent contour nodes from a base point near arg t = pi.
The square root of the Fredholm determinant is tracked by sign continuity
along the same chain; all residual constants cancel against the anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateSkewProductError
from .kernels import KernelBundle
from .laguerre import LaguerreBasis, build_basis
from .params import ContourSpec, ModelParams, mp_edges, weight_w
from .quadrature import KAPPA_EPSILON, half_line_rule
from .skew import SkewProductTable, pfaffian, skew_gram

__all__ = [
    "CdfResult",
    "truncated_moment_matrix",
    "logdet_m_derivative",
    "fredholm_det",
    "fredholm_det_exact",
    "loe_direct_cdf",
    "CdfEngine",
]


@dataclass(frozen=True)
class CdfResult:
    z: float
    value: float
    route: str
    diagnostics: dict = field(default_factory=dict)


def default_z_inf(params: ModelParams) -> float:
    """Anchor abscissa where the CDF is 1 to well below every tolerance."""
    _, b_plus = mp_edges(params.gamma)
    return 3.0 * (1.0 + params.tau) * b_plus + 10.0 / params.M


def truncated_moment_matrix(params: ModelParams, t: complex, z: float,
                            basis: LaguerreBasis | None = None,
                            n_panels: int = 24, q: int = 16) -> np.ndarray:
    """N x N antisymmetric matrix <L_j, L_k>_1 truncated to [0, z]^2."""
    if z <= 0.0:
        return np.zeros((params.N, params.N), dtype=complex)
    table = SkewProductTable.build(params, t, kmax=params.N - 1, z=z,
                                   basis=basis, n_panels=n_panels, q=q)
    return table.entries


def logdet_m_derivative(params: ModelParams, t: complex,
                        bundle: KernelBundle | None = None,
                        n_panels: int = 24, q: int = 16) -> complex:
    """d/dt log det M(t) = - int S1(x, x) / (t - tau_tilde x) dx."""
    if bundle is None:
        bundle = KernelBundle.build(params, t, n_panels=n_panels, q=q)
    return -bundle.resolvent_trace()


def _nystrom_grid(bundle: KernelBundle, z: float, n_nystrom: int):
    """Panel rule on [z, xmax] under x = z + u^2 (about n_nystrom nodes)."""
    xmax = bundle.table.rule.xmax
    q = 20
    n_panels = max(2, int(round(n_nystrom / q)))
    return half_line_rule(xmax, n_panels=n_panels, q=q, x0=z)


def fredholm_det(bundle: KernelBundle, z: float, n_nystrom: int = 80) -> complex:
    """det(I - K chi_[z, inf)) by Nystrom discretisation on [z, xmax].

    The three smooth entries are sampled pointwise; the sign-kernel
    eps(x - y) in the lower-left entry is discretised through the rule's
    exact cumulative operator, which keeps the scheme spectrally accurate
    despite the diagonal kink.  For z past the quadrature horizon the
    operator is empty and the determinant is 1.
    """
    if z >= bundle.table.rule.xmax:
        return 1.0 + 0j
    grid = _nystrom_grid(bundle, z, n_nystrom)
    x, w = grid.x, grid.w
    n = x.size
    S = bundle.s1(x, x)
    D = bundle.ds1(x, x)
    IS = bundle.is1(x, x)
    eps_op = KAPPA_EPSILON * (2.0 * grid.cumulative_matrix() - np.ones((n, 1)) * w[None, :])
    K = np.empty((2 * n, 2 * n), dtype=complex)
    K[:n, :n] = S * w[None, :]
    K[:n, n:] = D * w[None, :]
    K[n:, :n] = IS * w[None, :] - eps_op
    K[n:, n:] = S.T * w[None, :]
    return complex(np.linalg.det(np.eye(2 * n) - K))


def fredholm_det_exact(bundle: KernelBundle, z: float) -> complex:
    """Rank-reduced oracle: det(I - K chi) = det(I_N - mu B(z)).

    B_jk = <phi_j | eps chi | phi_k> + <phi_j | chi eps chi~ | phi_k> with
    phi_j = L_j w, chi the indicator of [z, inf) and chi~ = 1 - chi; both
    terms reduce to one-dimensional integrals of cumulative tables.  This is
    the finite-rank content of the Fredholm determinant, independent of the
    Nystrom discretisation.
    """
    rule = bundle.table.rule
    if z >= rule.xmax:
        return 1.0 + 0j
    N = bundle.params.N
    phi = bundle.table.lag[:N] * bundle.table.wvals
    F_z = rule.cum_at(phi, z)
    totals = phi @ rule.w
    tails = totals - F_z

    sub = half_line_rule(rule.xmax, n_panels=16, q=16, x0=z)
    lag_s = bundle.table.basis.eval_all(sub.x)[:N]
    phi_s = lag_s * weight_w(bundle.params, bundle.t, sub.x)
    F_s = rule.cum_at(phi, sub.x)

    k_eps = KAPPA_EPSILON
    tail_int = phi_s @ sub.w                                  # int_z phi_j
    cross = phi_s @ (sub.w[:, None] * F_s.T)                  # int_z phi_j F_k
    B = (-k_eps * np.outer(F_z, tails)
         + k_eps * (2.0 * cross - 2.0 * np.outer(tail_int, F_z) - np.outer(tail_int, tails))
         + k_eps * np.outer(tail_int, F_z))
    return complex(np.linalg.det(np.eye(N) - bundle.mu @ B))


def _loe_truncated_matrix(params: ModelParams, z: float, basis: LaguerreBasis,
                          n_panels: int = 24, q: int = 16) -> np.ndarray:
    """Moment matrix of the null (tau = 0) ensemble weight, no t anywhere."""
    rule = half_line_rule(float(z), n_panels=n_panels, q=q)
    wv = np.exp(-0.5 * params.M * rule.x) * rule.x ** (0.5 * (params.M - params.N - 1))
    return skew_gram(rule, basis.eval_all(rule.x)[: params.N] * wv)[0]


def loe_direct_cdf(params: ModelParams, z: float, z_inf: float | None = None,
                   n_panels: int = 24, q: int = 16) -> float:
    """Null-Wishart largest-eigenvalue CDF by a direct Pfaffian ratio.

    Pure real arithmetic, no contour: the tau = 0 weight has no t content
    beyond a global factor, so the t-integral drops out of the ratio.
    """
    if z_inf is None:
        z_inf = default_z_inf(params)
    basis = build_basis(params)
    if z <= 0.0:
        return 0.0
    num = pfaffian(_loe_truncated_matrix(params, z, basis, n_panels, q))
    den = pfaffian(_loe_truncated_matrix(params, z_inf, basis, n_panels, q))
    return float(np.real(num / den))


class CdfEngine:
    """Shared-anchor evaluator for P(lambda_max < z), both routes.

    One engine fixes (N, M, tau) plus all discretisation knobs; the
    normalisation anchors Z~ (one per route) are computed once at z_inf and
    reused for every z, as the formulas require.
    """

    def __init__(self, params: ModelParams, *, contour_nodes: int = 64,
                 margin: float = 0.5, radius_factor: float = 1.0,
                 n_panels: int = 24, q: int = 16, n_nystrom: int = 80,
                 z_inf: float | None = None):
        self.params = params
        self.contour_nodes = contour_nodes
        self.margin = margin
        self.radius_factor = radius_factor
        self.n_panels = n_panels
        self.q = q
        self.n_nystrom = n_nystrom
        self.z_inf = default_z_inf(params) if z_inf is None else float(z_inf)
        self._anchors: dict = {}
        self._bundles: dict = {}

    def contour_for(self, z: float) -> ContourSpec:
        """Circle hugging the integrand's branch cut [0, tau_tilde * z].

        The t-singularities of the truncated moment matrix sit where
        t = tau_tilde * x for some x in [0, z]; enclosing only that segment
        (rather than all of [0, z], which is sufficient but not necessary)
        keeps |e^{M t}| within e^{M margin} of the integral's actual size.
        A circle through Re t ~ z instead would make the node sum cancel to
        ~e^{M (1 - tau_tilde) z}, unrecoverable in double precision.  Node
        count grows with M * radius so trapezoid aliasing of e^{M t} stays
        far below roundoff.
        """
        tt = self.params.tau_tilde
        M = self.params.M
        cut = tt * z
        # The jump of the integrand across t = s dies like
        # e^{M s} e^{-M s / (2 tau_tilde)}: the smallest x contributing to the
        # discontinuity is s / tau_tilde and each weight carries e^{-M x / 2}.
        # Enclosing cut segments beyond where that has decayed to ~1e-13 only
        # adds e^{M R} cancellation noise, so the circle is capped there; the
        # crossing of the (numerically dead) remainder of the cut is harmless.
        if 0.0 < tt < 0.5:
            rate = M * (0.5 / tt - 1.0)
            cut = min(cut, 24.0 / rate)
        margin_eff = max(self.margin, cut / 8.0)
        radius = (cut / 2.0 + margin_eff) * self.radius_factor
        # radius_factor grows the circle leftward, pinning the rightmost
        # point at cut + margin: max Re t (hence the e^{M t} cancellation
        # floor) is invariant under radius doubling
        center = complex(cut + margin_eff - radius, 0.0)
        # node count: trapezoid aliasing of e^{M t}, and clearance from the
        # enclosed cut endpoints
        n = max(self.contour_nodes, 2 * math.ceil(1.6 * M * radius))
        if cut > 0:
            d_max = max(abs(center.real), cut - center.real)
            n = max(n, 2 * math.ceil(17.0 / math.log(radius / d_max)))
        return ContourSpec.circle(center, radius, n)

    # ------------------------------------------------------------------ #
    # Pfaffian route
    # ------------------------------------------------------------------ #

    def _pf_sum(self, z: float, contour: ContourSpec) -> complex:
        """Stabilised contour sum of e^{M t} Pf(Mtrunc(t, z))."""
        params = self.params
        basis = build_basis(params)
        pf_vals = [pfaffian(truncated_moment_matrix(params, tk, z, basis=basis,
                                                    n_panels=self.n_panels, q=self.q))
                   for tk in contour.nodes]
        return contour.integrate(np.exp(params.M * contour.nodes) * np.asarray(pf_vals))

    def cdf_pfaffian(self, z: float, contour: ContourSpec | None = None) -> CdfResult:
        if z <= 0.0:
            return CdfResult(z, 0.0, "pfaffian", {"anchor": self._anchor("pfaffian")})
        if contour is None:
            contour = self.contour_for(z)
        val = self._pf_sum(z, contour) / self._anchor("pfaffian")
        return CdfResult(
            z, float(val.real), "pfaffian",
            {"im_residual": float(val.imag), "node_count": contour.node_count,
             "anchor": self._anchor("pfaffian")},
        )

    def _anchor(self, route: str, c0_shift: int = 0) -> complex:
        key = (route, c0_shift)
        if key not in self._anchors:
            if route == "pfaffian":
                self._anchors[key] = self._pf_sum(self.z_inf, self.contour_for(self.z_inf))
            else:
                self._anchors[key] = self._fredholm_sum(self.z_inf, c0_shift)[0]
        return self._anchors[key]

    # ------------------------------------------------------------------ #
    # Fredholm route
    # ------------------------------------------------------------------ #

    def _bundle(self, t: complex) -> KernelBundle:
        key = complex(t)
        if key not in self._bundles:
            self._bundles[key] = KernelBundle.build(self.params, key,
                                                    n_panels=self.n_panels, q=self.q)
        return self._bundles[key]

    def _branches(self, contour: ContourSpec, c0_shift: int = 0):
        """Two index walks from the base node (nearest arg t = pi): one with
        decreasing phase through the upper half plane, one with increasing
        phase through the lower.  Neither crosses the positive real axis,
        where det M(t) has its branch cut; the walks close up across it only
        in the assembled product, whose jump cancels there.
        """
        n = contour.node_count
        i0 = (n // 2 - 1 + c0_shift) % n   # phases 2 pi (k + 1/2) / n: k = n/2 - 1 is just below pi
        up = list(range(i0, -1, -1))
        down = list(range(i0, n))
        return up, down

    def _detM(self, t: complex) -> complex:
        b = self._bundle(t)
        return complex(np.linalg.det(b.table.entries[: self.params.N, : self.params.N]))

    def _lambda_along(self, contour: ContourSpec, walk) -> np.ndarray:
        """Lambda(t_k) = (1/2) int_{c0}^{t_k} d/ds log det M(s) ds along the walk.

        Each chord's increment is pinned to the exact endpoint determinants:
        the 3-point Gauss estimate of the log-derivative integral only
        selects the branch of (1/2) Log(det M(b) / det M(a)), so the values
        satisfy e^{2 Lambda} = det M(t)/det M(c0) to quadrature accuracy of
        the determinants themselves, with winding decided by the derivative
        identity.
        """
        gl_x = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
        gl_w = np.array([5.0, 8.0, 5.0]) / 9.0
        lam = np.empty(len(walk), dtype=complex)
        lam[0] = 0.0
        nodes = contour.nodes
        for step in range(1, len(walk)):
            a, b = nodes[walk[step - 1]], nodes[walk[step]]
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            svals = mid + half * gl_x
            dvals = [logdet_m_derivative(self.params, s, bundle=self._bundle(s))
                     for s in svals]
            est = 0.5 * half * np.dot(gl_w, dvals)
            base = 0.5 * np.log(self._detM(b) / self._detM(a))
            m = round((est.imag - base.imag) / math.pi)
            lam[step] = lam[step - 1] + base + 1j * math.pi * m
        return lam

    def _fr_setup(self, c0_shift: int = 0):
        """Shared contour, walks and Lambda tables for the Fredholm route.

        One contour (the z_inf one; its geometry is capped, so it encloses
        the live cut for every z) and one base point serve every z: the
        sqrt(det M(c0)) constant hiding in Lambda then cancels against the
        anchor, as the single-(Gamma, c0) formula requires.
        """
        key = ("fr", c0_shift)
        if key not in self._anchors:
            contour = self.contour_for(self.z_inf)
            up, down = self._branches(contour, c0_shift)
            lam_up = self._lambda_along(contour, up)
            lam_down = self._lambda_along(contour, down)
            self._anchors[key] = (contour, up, down, lam_up, lam_down)
        return self._anchors[key]

    def _fredholm_sum(self, z: float, c0_shift: int = 0):
        contour, up, down, lam_up, lam_down = self._fr_setup(c0_shift)
        total = 0j
        root0 = None
        max_step = 0.0
        for walk, lam in ((up, lam_up), (down, lam_down)):
            roots = np.empty(len(walk), dtype=complex)
            for k, i in enumerate(walk):
                r = np.sqrt(fredholm_det(self._bundle(contour.nodes[i]), z,
                                         self.n_nystrom))
                if k == 0:
                    if root0 is None:
                        root0 = r          # common base value for both walks
                    roots[0] = root0
                else:
                    roots[k] = r if abs(r - roots[k - 1]) <= abs(r + roots[k - 1]) else -r
                    rel = abs(roots[k] - roots[k - 1]) / max(abs(roots[k]), 1e-300)
                    max_step = max(max_step, rel)
            vals = np.exp(self.params.M * contour.nodes[walk] + lam) * roots
            start = 1 if walk is down else 0    # base node summed once
            total += np.sum(contour.weights[walk[start:]] * vals[start:])
        return complex(total), {"sqrt_max_step": float(max_step),
                                "node_count": contour.node_count}

    def cdf_fredholm(self, z: float, c0_shift: int = 0) -> CdfResult:
        if z <= 0.0:
            return CdfResult(z, 0.0, "fredholm",
                             {"anchor": self._anchor("fredholm", c0_shift)})
        attempts = 0
        while True:
            try:
                total, diag = self._fredholm_sum(z, c0_shift)
                break
            except DegenerateSkewProductError:
                attempts += 1
                if attempts > 1:
                    raise
                # a degenerate node: advance the base point, which rotates
                # every chord off the offending configuration
                c0_shift += 1
        anchor = self._anchor("fredholm", c0_shift)
        val = total / anchor
        diag.update({"im_residual": float(val.imag), "anchor": anchor,
                     "n_nystrom": self.n_nystrom, "retries": attempts})
        return CdfResult(z, float(val.real), "fredholm", diag)

    def cdf(self, z: float, route: str = "pfaffian") -> CdfResult:
        if route == "pfaffian":
            return self.cdf_pfaffian(z)
        if route == "fredholm":
            return self.cdf_fredholm(z)
        raise ConfigError(f"unknown route {route!r}")

    def cdf_grid(self, zs, route: str = "pfaffian") -> list[CdfResult]:
        return [self.cdf(float(z), route) for z in zs]
