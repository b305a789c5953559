"""Largest-eigenvalue CDF via Pfaffians and via Fredholm determinants.

Primary route.  The ordered eigenvalue integral truncated at z equals (up to
a z- and t-independent constant) the Pfaffian of the truncated moment matrix
<(1 - chi_[z,inf)) L_j, (1 - chi_[z,inf)) L_k>_1, so

    P(lambda_max < z)  =  oint e^{M t} Pf(Mtrunc(t, z)) dt
                          -----------------------------------
                          oint e^{M t} Pf(Mtrunc(t, z_inf)) dt

with z_inf a far-tail anchor where the CDF is 1.  The unknown normalisation
constants of the de Bruijn identity and of the eigenvalue density cancel in
this ratio ("never computed from first principles").  Any monic family gives
the same Pfaffian (unit-triangular congruence), so the truncated matrices
are built straight from Laguerre.  Every z shares one contour, the z_inf
circle, and Mtrunc(t, z) is the full-half-line Gram summed over the nodes
below z (a panel edge), so one pass over the contour serves a whole z grid.

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
sqrt(det(I - K chi)) is tracked by sign continuity along the same chain;
all residual constants cancel against the anchor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PrecisionLossError
from .kernels import KernelBundle
from .laguerre import LaguerreBasis, build_basis
from .params import ContourSpec, ModelParams, mp_edges, weight_w
from .quadrature import KAPPA_EPSILON, half_line_rule
from .skew import SkewProductTable, default_xmax, pfaffian, skew_gram

__all__ = [
    "CdfResult",
    "truncated_moment_matrix",
    "logdet_m_derivative",
    "fredholm_det",
    "fredholm_det_exact",
    "loe_direct_cdf",
    "CdfEngine",
]


#: a CDF value is refused past this many digits lost to contour cancellation,
#: or RANGE_TOL outside [0, 1]
MAX_LOST_DIGITS, RANGE_TOL = 13.0, 1e-6


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


def truncated_moment_matrix(params: ModelParams, t: complex, z,
                            basis: LaguerreBasis | None = None,
                            n_panels: int = 24, q: int = 16) -> np.ndarray:
    """N x N antisymmetric matrix <L_j, L_k>_1 truncated to [0, z]^2.

    A 1-D z gives the stack (len(z), N, N), every truncation read off one
    full-half-line rule with a panel edge at each z; z <= 0 gives zeros.
    """
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


#: byte budget of one block of stacked Nystrom matrices in `fredholm_det`
_DET_BLOCK_BYTES = 1 << 24


@functools.lru_cache(maxsize=256)
def _nystrom_data(xmax: float, z: float, n_panels: int):
    """Read-only t-free Nystrom nodes, weights and eps operator on [z, xmax]."""
    grid = half_line_rule(xmax, n_panels, 20, x0=z)  # x = z + u^2
    eps_op = KAPPA_EPSILON * (2.0 * grid.cumulative_matrix() - grid.w[None, :])
    for a in (grid.x, grid.w, eps_op):
        a.setflags(write=False)
    return grid.x, grid.w, eps_op


def fredholm_det(bundle: KernelBundle, z, n_nystrom: int = 80):
    """det(I - K chi_[z, inf)) by Nystrom discretisation on [z, xmax], z scalar or 1-D.

    The three smooth entries are sampled pointwise; the sign-kernel
    eps(x - y) in the lower-left entry goes through the rule's exact
    cumulative operator, which keeps the scheme spectrally accurate despite
    the diagonal kink.  z past the quadrature horizon gives 1.  Every z has
    n nodes, so the kernels are sampled once for the stacked grids and one
    batched determinant is taken per block of at most `_DET_BLOCK_BYTES`.
    """
    zs = np.asarray(z, dtype=float)
    xmax = bundle.table.rule.xmax
    out = np.ones(zs.shape, dtype=complex)
    live = np.flatnonzero(zs < xmax)
    n = 20 * max(2, round(n_nystrom / 20))
    block = max(1, _DET_BLOCK_BYTES // (16 * (2 * n) ** 2))
    for start in range(0, live.size, block):
        idx = live[start:start + block]
        data = (_nystrom_data(xmax, float(zs.flat[i]), n // 20) for i in idx)
        x, w, eps_op = map(np.stack, zip(*data))
        w = w[:, None, :]
        S = bundle.s1(x, x)
        K = np.empty((idx.size, 2 * n, 2 * n), dtype=complex)
        K[:, :n, :n] = S * w
        K[:, :n, n:] = bundle.ds1(x, x) * w
        K[:, n:, :n] = bundle.is1(x, x) * w - eps_op
        K[:, n:, n:] = np.swapaxes(S, -1, -2) * w
        out.flat[idx] = np.linalg.det(np.eye(2 * n) - K)
    return complex(out) if zs.ndim == 0 else out


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


def loe_direct_cdf(params: ModelParams, z: float, z_inf: float | None = None,
                   n_panels: int = 24, q: int = 16) -> float:
    """Null-Wishart largest-eigenvalue CDF by a direct Pfaffian ratio.

    Pure real arithmetic, no contour: the tau = 0 weight has no t content
    beyond a global factor, so the t-integral drops out of the ratio.
    Numerator and denominator are the moment matrices truncated at z and
    z_inf, from one skew Gram on one rule.
    """
    if z_inf is None:
        z_inf = default_z_inf(params)
    rule = half_line_rule(default_xmax(params), n_panels=n_panels, q=q, breaks=(z, z_inf))
    wv = np.exp(-0.5 * params.M * rule.x) * rule.x ** (0.5 * (params.M - params.N - 1))
    phi = build_basis(params).eval_all(rule.x)[: params.N] * wv
    num, den = (pfaffian(m) for m in skew_gram(rule, phi, [z, z_inf])[0])
    if not (np.isfinite(num) and np.isfinite(den) and num != 0 and den != 0):
        raise FloatingPointError(f"LOE Pfaffians at z = {z:g}, z_inf = {z_inf:g} are "
                                 f"{num} and {den}: they under- or overflow at this (N, M)")
    return float(np.real(num / den))


class CdfEngine:
    """Evaluator of P(lambda_max < z) on one contour with one anchor per route.

    One engine fixes (N, M, tau), all discretisation knobs and with them one
    contour, the circle for z_inf: its geometry is capped, so it encloses
    the live part of the branch cut for every z, and both routes use it.
    `cdf_grid` is the one evaluation path.  A single pass over the contour
    nodes serves every z of a grid; the first pass of each route also
    evaluates z_inf and caches that contour sum as the route's
    normalisation anchor, which later calls reuse.
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
        self.contour = self.contour_for(self.z_inf)
        self._anchors: dict = {}     # (route, c0_shift) -> contour sum at z_inf
        self._lambdas: dict = {}     # c0_shift -> Fredholm walks and their Lambda tables
        self._bundles: dict = {}     # contour node -> KernelBundle

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
    # The one evaluation path
    # ------------------------------------------------------------------ #

    def cdf_grid(self, zs, route: str = "pfaffian") -> list[CdfResult]:
        """P(lambda_max < z) for every z of `zs`, in order, from one node pass.

        z <= 0 gives exactly 0.  Each other result carries `im_residual`,
        `node_count`, the route's `anchor` and
        `cancellation_digits` = log10(sum |w e^{M t} f| / |sum w e^{M t} f|),
        the digits lost to cancellation in the contour sum (f is Pf on the
        Pfaffian route and e^Lambda sqrt(det) on the Fredholm route).  A z
        that loses more than MAX_LOST_DIGITS, or whose value leaves [0, 1]
        by more than RANGE_TOL, raises PrecisionLossError.
        """
        return self._grid(zs, route)

    def cdf(self, z: float, route: str = "pfaffian") -> CdfResult:
        return self._grid([z], route)[0]

    def cdf_pfaffian(self, z: float) -> CdfResult:
        return self._grid([z], "pfaffian")[0]

    def cdf_fredholm(self, z: float, c0_shift: int = 0) -> CdfResult:
        return self._grid([z], "fredholm", c0_shift)[0]

    def _grid(self, zs, route: str, c0_shift: int = 0) -> list[CdfResult]:
        if route not in ("pfaffian", "fredholm"):
            raise ConfigError(f"unknown route {route!r}")
        zs = [float(z) for z in zs]
        if not all(map(math.isfinite, zs)):
            raise ConfigError(f"every z must be finite, got {zs}")
        live = [z for z in zs if z > 0.0]
        n = self.contour.node_count
        results = iter(())
        if live:
            key = (route, c0_shift)
            pts = live + ([self.z_inf] if key not in self._anchors else [])
            f, diags = self._node_values(pts, route, c0_shift)
            terms = (self.contour.weights * np.exp(self.params.M * self.contour.nodes))[:, None] * f
            total = terms.sum(axis=0)
            if len(pts) > len(live):
                if not (np.isfinite(total[-1]) and total[-1] != 0):
                    raise FloatingPointError(
                        f"{route} anchor at z_inf = {self.z_inf:g} is {total[-1]}: "
                        "the contour sum under- or overflows at this (N, M, tau)")
                self._anchors[key] = complex(total[-1])
            anchor = self._anchors[key]
            mag = np.abs(terms).sum(axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                digits = np.where(mag > 0, np.log10(mag / np.abs(total)), 0.0)
            vals = total[:len(live)] / anchor
            in_range = (vals.real >= -RANGE_TOL) & (vals.real <= 1.0 + RANGE_TOL)
            bad = np.flatnonzero(~in_range | (digits[:len(live)] > MAX_LOST_DIGITS))
            if bad.size:
                k = bad[0]
                raise PrecisionLossError(
                    f"{route} CDF at z = {live[k]:g} is {vals[k].real:.6g} and lost "
                    f"{digits[k]:.1f} digits to contour cancellation (budget {MAX_LOST_DIGITS:g})")
            results = iter([CdfResult(z, float(vals[k].real), route, {
                "im_residual": float(vals[k].imag), "node_count": n, "anchor": anchor,
                "cancellation_digits": float(digits[k]), **diags[k]})
                for k, z in enumerate(live)])
        return [next(results) if z > 0.0 else CdfResult(z, 0.0, route, {"node_count": n})
                for z in zs]

    def _node_values(self, zs, route: str, c0_shift: int):
        """f at every contour node (rows) and z (columns), and per-z diagnostics."""
        if route == "fredholm":
            return self._fredholm_values(zs, c0_shift)
        basis = build_basis(self.params)
        return np.array([[pfaffian(m) for m in truncated_moment_matrix(
            self.params, t, zs, basis=basis, n_panels=self.n_panels, q=self.q)]
            for t in self.contour.nodes]), [{}] * len(zs)

    # ------------------------------------------------------------------ #
    # Fredholm route
    # ------------------------------------------------------------------ #

    def _bundle(self, t: complex) -> KernelBundle:
        key = complex(t)
        if key not in self._bundles:
            self._bundles[key] = KernelBundle.build(self.params, key,
                                                    n_panels=self.n_panels, q=self.q)
        return self._bundles[key]

    def _lambda_along(self, walk) -> np.ndarray:
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
        lam = np.zeros(len(walk), dtype=complex)
        nodes, N = self.contour.nodes, self.params.N
        detm = [complex(np.linalg.det(self._bundle(nodes[i]).table.entries[:N, :N])) for i in walk]
        for step in range(1, len(walk)):
            a, b = nodes[walk[step - 1]], nodes[walk[step]]
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            svals = mid + half * gl_x
            # chord points are read once: their bundles are not cached
            dvals = [logdet_m_derivative(self.params, s, n_panels=self.n_panels, q=self.q)
                     for s in svals]
            est = 0.5 * half * np.dot(gl_w, dvals)
            base = 0.5 * np.log(detm[step] / detm[step - 1])
            m = round((est.imag - base.imag) / math.pi)
            lam[step] = lam[step - 1] + base + 1j * math.pi * m
        return lam

    def _walks(self, c0_shift: int):
        """Two index walks from the base node, with their Lambda tables.

        The base node is the one nearest arg t = pi, advanced by c0_shift;
        one walk runs with decreasing phase through the upper half plane,
        one with increasing phase through the lower.  Neither crosses the
        positive real axis, where det M(t) has its branch cut; the walks
        close up across it only in the assembled product, whose jump cancels
        there.  One base point serves every z, so the sqrt(det M(c0))
        constant hiding in Lambda cancels against the anchor.
        """
        if c0_shift not in self._lambdas:
            n = self.contour.node_count
            i0 = (n // 2 - 1 + c0_shift) % n   # phases 2 pi (k + 1/2) / n: k = n/2 - 1 is just below pi
            self._lambdas[c0_shift] = [(w, self._lambda_along(w))
                                       for w in (range(i0, -1, -1), range(i0, n))]
        return self._lambdas[c0_shift]

    def _fredholm_values(self, zs, c0_shift: int):
        """e^Lambda sqrt(det(I - K chi_[z, inf))) at every node and z.

        The root's sign is continued along each walk from the common base
        node, for all z at once; `sqrt_max_step` is each z's largest
        relative jump between neighbours.
        """
        nodes = self.contour.nodes
        f = np.empty((len(nodes), len(zs)), dtype=complex)
        max_step = np.zeros(len(zs))
        roots: dict = {}
        for walk, lam in self._walks(c0_shift):
            prev = None
            for i, la in zip(walk, lam):
                if i not in roots:
                    r = np.sqrt(fredholm_det(self._bundle(nodes[i]), zs, self.n_nystrom))
                    if prev is not None:
                        r = np.where(abs(r - prev) <= abs(r + prev), r, -r)
                        max_step = np.maximum(max_step, abs(r - prev) / np.maximum(abs(r), 1e-300))
                    roots[i] = r
                prev = roots[i]
                f[i] = np.exp(la) * prev
        return f, [{"sqrt_max_step": float(s), "n_nystrom": self.n_nystrom} for s in max_step]
