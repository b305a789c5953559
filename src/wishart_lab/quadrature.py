"""Half-line quadrature with endpoint absorption, and the epsilon transform.

Every integral in the model reduces to weighted integrals on [0, xmax] (or a
truncation [0, z]) of functions shaped like  poly(x) * w(x) * smooth(x).  The
weight carries x^((M-N-1)/2), which is a half-integer power whenever M - N is
even, so all rules here are built under the substitution x = u^2:

    int_0^X f(x) dx = int_0^sqrt(X) 2 u f(u^2) du

which turns x^(k/2) factors into plain powers of u.  In u the integrand is
panelwise analytic, so composite Gauss-Legendre panels converge spectrally.

Besides plain integration the rules support *cumulative* integration
F(y) = int_0^y f, evaluated both at the rule's own nodes and at arbitrary
points, by re-expanding each panel's samples in a Legendre series and
integrating that series term by term.  This is what makes the epsilon
transform

    eps(f)(x) = kappa * ( int_0^x f  -  int_x^xmax f ),   kappa = 1/2

cheap to evaluate anywhere.  The constant KAPPA_EPSILON = 1/2 is the single
normalisation used everywhere the transform appears; with it,
d/dx eps(f)(x) = 2 * kappa * f(x) = f(x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, QuadratureError

__all__ = [
    "KAPPA_EPSILON",
    "HalfLineRule",
    "half_line_rule",
    "finite_rule",
    "integrate_halfline",
    "epsilon_transform",
    "EpsilonTransform",
]

#: Normalisation of the epsilon transform: eps(f)(x) = KAPPA_EPSILON * (F(x) - (T - F(x))).
#: Pinned to 1/2 so that <f, g>_1 = int f w eps(g w) holds exactly; see the
#: kernel-equivalence suite, which is sensitive to this constant.
KAPPA_EPSILON = 0.5


def _legendre_values(v, q):
    """P_0..P_{q}(v) by the three-term recurrence; shape (q+1,) + v.shape."""
    v = np.asarray(v, dtype=float)
    out = np.empty((q + 1,) + v.shape)
    out[0] = 1.0
    if q >= 1:
        out[1] = v
    for n in range(1, q):
        out[n + 1] = ((2 * n + 1) * v * out[n] - n * out[n - 1]) / (n + 1)
    return out


def _legendre_cumulative(v, q):
    """IntP_n(v) = int_{-1}^v P_n for n = 0..q-1; shape (q,) + v.shape."""
    P = _legendre_values(v, q)
    out = np.empty((q,) + np.shape(v))
    out[0] = np.asarray(v) + 1.0
    for n in range(1, q):
        out[n] = (P[n + 1] - P[n - 1]) / (2 * n + 1)
    return out


@dataclass(frozen=True)
class HalfLineRule:
    """Composite Gauss-Legendre rule on [0, xmax] under x = u^2.

    Fields `x`, `w` give nodes (increasing) and weights for int_0^xmax f dx.
    `u_edges` are the panel boundaries in u = sqrt(x); each panel carries `q`
    Gauss nodes.  The matrices `vinv` (Legendre analysis) and `cum_ref`
    (reference cumulative integrals) implement within-panel cumulatives.
    """

    xmax: float
    q: int
    u_edges: np.ndarray
    x0: float
    x: np.ndarray
    w: np.ndarray
    ug: np.ndarray        # reference Gauss nodes on [-1, 1]
    wg: np.ndarray        # reference Gauss weights
    vinv: np.ndarray      # (q, q): samples at ug -> Legendre coefficients
    cum_ref: np.ndarray   # (q, q): cum_ref[i, n] = int_{-1}^{ug_i} P_n

    @property
    def n_panels(self) -> int:
        return len(self.u_edges) - 1

    @property
    def n_nodes(self) -> int:
        return self.x.size

    def integrate(self, fvals) -> complex:
        fvals = np.asarray(fvals)
        if not np.all(np.isfinite(fvals)):
            bad = int(np.flatnonzero(~np.isfinite(fvals))[0])
            raise QuadratureError(f"non-finite sample at node {bad} (x={self.x[bad]:.6g})")
        return fvals @ self.w

    def _panel_scales(self):
        return 0.5 * np.diff(self.u_edges)

    def _series(self, fvals):
        """Legendre series of g = 2 u f(u^2) on every panel, and running totals.

        Returns the coefficients, shaped (..., n_panels, q), and the
        integrals up to each panel edge, shaped (..., n_panels + 1).
        """
        u = np.sqrt(self.x - self.x0)
        g = 2.0 * u * np.asarray(fvals)
        g = g.reshape(g.shape[:-1] + (self.n_panels, self.q))
        panel_totals = (g * self.wg).sum(axis=-1) * self._panel_scales()
        running = np.cumsum(panel_totals, axis=-1)
        prefix = np.concatenate((np.zeros_like(running[..., :1]), running), axis=-1)
        return g @ self.vinv.T, prefix

    def cumulative(self, fvals) -> np.ndarray:
        """F(x_i) = int_{x0}^{x_i} f dx at every rule node.

        `fvals` holds samples at the nodes along its last axis, optionally
        stacked over leading axes; the result has the same shape.
        """
        coef, prefix = self._series(fvals)
        s = self._panel_scales()
        within = coef @ self.cum_ref.T * s[:, None]  # cumulative inside each panel at its nodes
        out = within + prefix[..., :-1, None]
        return out.reshape(out.shape[:-2] + (-1,))

    def cumulative_matrix(self) -> np.ndarray:
        """Matrix C with (C f)_i = int_{x0}^{x_i} of the panelwise interpolant.

        Exact for functions the per-panel Legendre series represents; used
        to discretise the sign-kernel operator without losing spectral
        convergence to its diagonal kink.
        """
        n = self.n_nodes
        s = self._panel_scales()
        u = np.sqrt(self.x - self.x0)
        C = np.zeros((n, n))
        Q = self.cum_ref @ self.vinv            # within-panel cumulative of samples
        for p in range(self.n_panels):
            sl = slice(p * self.q, (p + 1) * self.q)
            C[sl, sl] = s[p] * Q
            C[(p + 1) * self.q:, sl] = s[p] * self.wg
        return C * (2.0 * u)[None, :]

    def cum_at(self, fvals, xq) -> np.ndarray:
        """int_{x0}^{xq} f dx for arbitrary query points (clipped to [x0, xmax]).

        `fvals` is shaped (..., n_nodes) as in `cumulative`; a scalar `xq`
        gives shape (...), a 1-D `xq` gives (..., len(xq)).  The Legendre
        basis at the query points is built once for the whole stack.
        """
        coef, prefix = self._series(fvals)
        s = self._panel_scales()
        scalar = np.ndim(xq) == 0
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        uq = np.sqrt(np.clip(xq, self.x0, self.xmax) - self.x0)
        idx = np.clip(np.searchsorted(self.u_edges, uq, side="right") - 1, 0, self.n_panels - 1)
        lo = self.u_edges[idx]
        v = np.clip((uq - lo) / s[idx] - 1.0, -1.0, 1.0)
        intp = _legendre_cumulative(v, self.q)       # (q, npts)
        within = np.einsum("...pn,np->...p", coef[..., idx, :], intp) * s[idx]
        out = prefix[..., idx] + within
        return np.take(out, 0, axis=-1) if scalar else out


def _build_from_u_edges(xmax: float, u_edges: np.ndarray, q: int, x0: float = 0.0) -> HalfLineRule:
    ug, wg = leggauss(q)
    lo, hi = u_edges[:-1], u_edges[1:]
    scale = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    u = (mid[:, None] + scale[:, None] * ug[None, :]).reshape(-1)
    w_u = (scale[:, None] * wg[None, :]).reshape(-1)
    x = x0 + u * u
    w = w_u * 2.0 * u
    # Legendre analysis operator at the reference nodes
    V = _legendre_values(ug, q - 1).T               # (q, q): V[i, n] = P_n(ug_i)
    vinv = np.linalg.inv(V)
    cum_ref = _legendre_cumulative(ug, q).T         # (q, q)
    return HalfLineRule(float(xmax), q, np.asarray(u_edges, float), float(x0),
                        x, w, ug, wg, vinv, cum_ref)


def _merge_edges(edges: np.ndarray, new, tol: float) -> np.ndarray:
    """`edges` plus the points of `new` inside its span, no panel narrower than `tol`.

    The end points stay; a near-duplicate new point is dropped, and an old
    interior edge within `tol` of a new point gives way to it.
    """
    lo, hi = edges[0], edges[-1]
    new = np.unique(np.asarray(new, float))
    new = new[(new > lo + tol) & (new < hi - tol)]
    new = new[np.diff(new, prepend=-np.inf) > tol]
    old = edges[1:-1]
    old = old[np.min(np.abs(old[:, None] - new[None, :]), axis=1, initial=np.inf) > tol]
    return np.unique(np.concatenate(([lo, hi], old, new)))


def _refine_edges(base: np.ndarray, u_star: float, delta: float, levels: int = 7) -> np.ndarray:
    """Insert a geometric ladder of edges around u_star, floor width `delta`."""
    extra = [u_star + sgn * delta * 2.0**m for m in range(levels + 1) for sgn in (-1.0, 1.0)]
    return _merge_edges(base, extra + [u_star], 1e-3 * delta)


def half_line_rule(
    xmax: float,
    n_panels: int = 24,
    q: int = 16,
    refine_x: float | None = None,
    refine_width: float | None = None,
    x0: float = 0.0,
    breaks=(),
) -> HalfLineRule:
    """Build a rule on [x0, xmax] (x0 defaults to 0).

    If `refine_x` is given (the real part of the weight's branch point,
    Re t / tau_tilde), panel edges cluster geometrically toward it down to
    panels of u-width `refine_width`, so the peaked factor
    (t - tau_tilde x)^(-1/2) is resolved without ever evaluating closer to
    the peak than its own scale.

    Every break z inside (x0, xmax) becomes a panel edge, so the nodes with
    x_i < z integrate exactly over [x0, z]: truncating to [x0, z] is a mask
    on this one rule, not a rule of its own.
    """
    if xmax <= x0 or n_panels < 2 or q < 4:
        raise ConfigError("need xmax > x0, n_panels >= 2, q >= 4")
    umax = np.sqrt(xmax - x0)
    base = umax * np.linspace(0.0, 1.0, n_panels + 1)
    if refine_x is not None and x0 < refine_x < x0 + 1.1 * (xmax - x0):
        u_star = np.sqrt(refine_x - x0)
        base_width = umax / n_panels
        delta = base_width / 64.0 if refine_width is None else max(refine_width, base_width / 512.0)
        if delta < base_width:
            base = _refine_edges(base, u_star, delta)
    if np.size(breaks):
        base = _merge_edges(base, np.sqrt(np.clip(breaks, x0, xmax) - x0), 1e-9 * umax)
    return _build_from_u_edges(xmax, base, q, x0=x0)


def finite_rule(a: float, b: float, n_panels: int = 12, q: int = 16,
                sqrt_left: bool = False, sqrt_right: bool = False):
    """Plain composite Gauss-Legendre nodes/weights on [a, b].

    sqrt_left / sqrt_right absorb an inverse-square-root endpoint
    singularity by mapping x = a + u^2 (resp. x = b - u^2).
    """
    if b <= a:
        raise ConfigError(f"empty interval [{a}, {b}]")
    ug, wg = leggauss(q)
    if sqrt_left and sqrt_right:
        raise ConfigError("choose at most one endpoint to absorb")
    if sqrt_left or sqrt_right:
        umax = np.sqrt(b - a)
        edges = umax * np.linspace(0.0, 1.0, n_panels + 1)
        lo, hi = edges[:-1], edges[1:]
        scale, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        u = (mid[:, None] + scale[:, None] * ug).reshape(-1)
        w_u = (scale[:, None] * np.broadcast_to(wg, (n_panels, q))).reshape(-1)
        if sqrt_left:
            return a + u * u, 2.0 * u * w_u
        x = b - u * u
        return x[::-1], (2.0 * u * w_u)[::-1]
    edges = np.linspace(a, b, n_panels + 1)
    lo, hi = edges[:-1], edges[1:]
    scale, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    x = (mid[:, None] + scale[:, None] * ug).reshape(-1)
    w = (scale[:, None] * np.broadcast_to(wg, (n_panels, q))).reshape(-1)
    return x, w


def integrate_halfline(f, rule: HalfLineRule) -> complex:
    """Integrate a callable or sampled values against the rule."""
    fvals = f(rule.x) if callable(f) else np.asarray(f)
    return rule.integrate(fvals)


def epsilon_transform(f, rule: HalfLineRule, x, kappa: float = KAPPA_EPSILON):
    """eps(f)(x) for a callable or sampled integrand, at point(s) x."""
    fvals = f(rule.x) if callable(f) else np.asarray(f)
    return EpsilonTransform(rule, fvals, kappa=kappa)(x)


class EpsilonTransform:
    """eps(f)(x) = kappa * (int_0^x f - int_x^xmax f) for sampled f.

    `fvals` is shaped (..., n_nodes): one transform per row of a stack,
    all computed together.  Precomputes the cumulative table once;
    evaluation at the rule's own nodes is a lookup, and arbitrary points go
    through the panelwise Legendre series.  Linear in f; eps(f)' = 2 kappa f
    at interior points.
    """

    def __init__(self, rule: HalfLineRule, fvals, kappa: float = KAPPA_EPSILON):
        self.rule = rule
        self.kappa = kappa
        self._fvals = np.asarray(fvals)
        self.cumulative = rule.cumulative(self._fvals)   # int_x0^{x_i} f at the nodes
        self.total = np.asarray(self._fvals @ rule.w)   # shape (...)

    def at_nodes(self) -> np.ndarray:
        """eps(f) at the rule nodes, shaped like `fvals`."""
        return self.kappa * (2.0 * self.cumulative - self.total[..., None])

    def __call__(self, xq):
        """eps(f)(xq), shaped (...) for scalar xq and (..., len(xq)) otherwise."""
        F = self.rule.cum_at(self._fvals, xq)
        total = self.total if np.ndim(xq) == 0 else self.total[..., None]
        return self.kappa * (2.0 * F - total)
