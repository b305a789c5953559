"""Half-line quadrature with endpoint absorption, and the epsilon transform.

Every integral in the model reduces to weighted integrals on [0, xmax] (or a
truncation [0, z]) of functions shaped like  poly(x) * w(x) * smooth(x).  The
weight carries x^((M-N-1)/2), which is a half-integer power whenever M - N is
even, so all rules here are built under the substitution x = u^2:

    int_0^X f(x) dx = int_0^sqrt(X) 2 u f(u^2) du

which turns x^(k/2) factors into plain powers of u.  In u the integrand is
panelwise analytic, so composite Gauss-Legendre panels converge spectrally.
Every rule is built from its u-edges by `_from_edges`: equal panels (`half_line_rule`),
a stack of padded edges (`HalfLineRule.stack`), or edges `_panel_edges` refines toward
the weight's branch point (`skew.rule_for_t`), the one place that decides refinement.

Besides plain integration the rules support *cumulative* integration
F(y) = int_0^y f of each panel's interpolant of the samples: at the rule's own nodes
through the reference panel's cumulative matrix, and at any point as the integral up to
the panel edge below it plus the in-panel piece from the reference panel's Chebyshev
`head` table (`HalfLineRule.cum_at`).  This is what makes the epsilon transform

    eps(f)(x) = kappa * ( int_0^x f  -  int_x^xmax f ),   kappa = 1/2

cheap to evaluate anywhere.  The constant KAPPA_EPSILON = 1/2 is the single
normalisation used everywhere the transform appears; with it,
d/dx eps(f)(x) = 2 * kappa * f(x) = f(x).

The truncated skew Gram (1/2) int_0^z (f_a F_b - f_b F_a) costs per panel edge once and per
z only for the piece of z's own panel: a z-free table of running sums of per-panel blocks up to
each edge (`EpsilonTransform.gram_rows`), and the same `head` table for the piece of that panel
below z (`_read_gram`).  The two readers share the panel lookup (`_locate`) and the head
evaluation (`_head_at`), and both batch over a `HalfLineRule.stack`.  Grams pass as packed strict
upper triangles; one gather (`_unpack`) makes them matrices, for `truncated_gram` and Pfaffians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, QuadratureError, check_count, check_real

__all__ = [
    "KAPPA_EPSILON",
    "ReferencePanel",
    "reference_panel",
    "HalfLineRule",
    "half_line_rule",
    "finite_rule",
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


def _legendre_cumulative(v, q, P=None):
    """IntP_n(v) = int_{-1}^v P_n for n = 0..q-1 (from P_0..P_q(v) if given); shape (q,) + v.shape."""
    P = _legendre_values(v, q) if P is None else P
    n = np.arange(1, q).reshape((-1,) + (1,) * (P.ndim - 1))
    return np.concatenate((P[1:2] + 1.0, (P[2:] - P[:-2]) / (2 * n + 1)))


@dataclass(frozen=True)
class ReferencePanel:
    """The q-point Gauss-Legendre panel on [-1, 1] that every rule maps to its panels.

    It depends on q alone, so `reference_panel` builds one per q for every rule
    of the process; its arrays are read-only.  `cum_samples` gives the within-panel
    cumulatives at the nodes and `head` those at any point; `vinv` (Legendre analysis)
    and `cum_ref` (reference cumulative integrals) only build them.
    """

    q: int
    ug: np.ndarray        # reference Gauss nodes on [-1, 1]
    wg: np.ndarray        # reference Gauss weights
    vinv: np.ndarray      # (q, q): samples at ug -> Legendre coefficients
    cum_ref: np.ndarray   # (q, q): cum_ref[i, n] = int_{-1}^{ug_i} P_n
    cum_samples: np.ndarray  # (q, q): cum_ref @ vinv, samples at ug -> int_{-1}^{ug_i}

    @cached_property
    def head(self) -> np.ndarray:
        """Chebyshev coefficients in V, shaped (2q - 1, q, q + 1), of K_ij(V) / (V + 1)^2
        (j < q) and m_i(V) / (V + 1) (j = q): m_i(V) = int_{-1}^V l_i and K_ij(V) =
        int_{-1}^V l_i m_j for the Lagrange basis l_i on `ug`.  Both are polynomials
        (degrees 2q - 2, q - 1; dividing out the roots keeps V near -1 accurate), fitted
        at 2q - 1 Chebyshev points from a q-point Gauss rule on [-1, V], exact there."""
        q, n = self.q, 2 * self.q - 1
        V = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        d = (V + 1.0)[:, None]                         # Gauss nodes on [-1, V]: d (ug + 1) / 2 - 1
        leg = _legendre_values(d * (self.ug + 1.0) / 2.0 - 1.0, q)
        ell, m = np.moveaxis(np.stack((leg[:q], _legendre_cumulative(None, q, leg))), 1, -1) @ self.vinv
        ellw = np.swapaxes(ell, 1, 2) * (d * self.wg / 2.0)[:, None]    # l_i times the weights on [-1, V]
        vals = np.concatenate((ellw @ m / d[..., None], ellw.sum(-1)[..., None]), -1)
        coef = np.linalg.solve(chebvander(V, n - 1), (vals / d[..., None]).reshape(n, -1))
        coef.setflags(write=False)
        return coef.reshape(vals.shape)


def reference_panel(q: int) -> ReferencePanel:
    """The q-point reference panel, built once per q in a process; q must be an integer >= 4."""
    return _reference_panel(check_count("q", q, 4))


@cache
def _reference_panel(q: int) -> ReferencePanel:
    ug, wg = leggauss(q)
    V = _legendre_values(ug, q - 1).T               # (q, q): V[i, n] = P_n(ug_i)
    vinv, cum_ref = np.linalg.inv(V), _legendre_cumulative(ug, q).T
    arrays = (ug, wg, vinv, cum_ref, cum_ref @ vinv)
    for a in arrays:
        a.setflags(write=False)
    return ReferencePanel(q, *arrays)


@dataclass(frozen=True)
class HalfLineRule:
    """Composite Gauss-Legendre rule on [0, xmax] under x = u^2.

    Fields `x`, `w` give nodes (increasing) and weights for int_0^xmax f dx.
    A rule on [z, X] is z + half_line_rule(X - z): its nodes shifted by z, the same
    weights, and cumulatives queried at x - z.
    `u_edges` are the panel boundaries in u = sqrt(x); each panel is an affine image of
    the shared reference `panel` (`reference_panel(q)`), whose tables also give the
    within-panel cumulatives, at the nodes (`cum_samples`) and at points (`head`).  A
    `stack` puts a rules axis first; it serves `integrate`, `cumulative`, `cum_at` and
    `EpsilonTransform` of samples shaped (rules, k, n_nodes), and refuses any other shape.
    """

    xmax: float
    u_edges: np.ndarray
    x: np.ndarray
    w: np.ndarray
    panel: ReferencePanel

    @property
    def q(self) -> int:
        return self.panel.q

    @property
    def n_panels(self) -> int:
        return self.u_edges.shape[-1] - 1

    @property
    def n_nodes(self) -> int:
        return self.x.shape[-1]

    @classmethod
    def stack(cls, xmax: float, edges, q: int) -> "HalfLineRule":
        """q-point rules on [0, xmax] on each of `edges`, padded to the most panels with
        zero-width panels at sqrt(xmax) (weights exactly 0, above every point), stacked."""
        return _from_edges(xmax, _pad_edges(edges), q)

    def _lift(self, a):     # a per-rule array, with an axis for the k rows of a stack's samples
        return a if self.u_edges.ndim == 1 else a[..., None, :]

    def _samples(self, fvals) -> np.ndarray:
        """`fvals` as an array; a stack's must be shaped (rules, k, n_nodes) (ConfigError)."""
        fvals, rules = np.asarray(fvals), self.u_edges.shape[:-1]
        if rules and (fvals.ndim != 3 or fvals.shape[::2] != rules + (self.n_nodes,)):
            raise ConfigError(f"samples on a stack of {rules[0]} rules of {self.n_nodes} nodes "
                              f"must be shaped (rules, k, n_nodes), got {fvals.shape}")
        return fvals

    def integrate(self, fvals):
        """int_0^xmax f along the last axis; on a stack each rule's rows with its own weights."""
        fvals = self._samples(fvals)
        if not np.all(np.isfinite(fvals)):
            *row, node = np.unravel_index(np.flatnonzero(~np.isfinite(fvals))[0], fvals.shape)
            where = f"row {', '.join(map(str, row))}, node {node}" if row else f"node {node}"
            x = self.x[node] if self.x.ndim == 1 else self.x[row[0], node]
            raise QuadratureError(f"non-finite sample at {where} (x={x:.6g})")
        return (fvals @ self.w[..., None])[..., 0]

    def _panel_scales(self):
        return self._lift(0.5 * np.diff(self.u_edges))

    def _series(self, fvals):
        """Samples of g = 2 u f(u^2) per panel, shaped (..., n_panels, q), and the
        integrals up to each panel edge, shaped (..., n_panels + 1)."""
        u = self._lift(np.sqrt(self.x))
        g = 2.0 * u * self._samples(fvals)
        g = g.reshape(g.shape[:-1] + (self.n_panels, self.q))
        panel_totals = (g @ self.panel.wg) * self._panel_scales()
        running = np.cumsum(panel_totals, axis=-1)
        prefix = np.concatenate((np.zeros_like(running[..., :1]), running), axis=-1)
        return g, prefix

    def cumulative(self, fvals) -> np.ndarray:
        """F(x_i) = int_0^{x_i} f dx at every rule node.

        `fvals` holds samples at the nodes along its last axis, optionally
        stacked over leading axes; the result has the same shape.
        """
        g, prefix = self._series(fvals)
        out = g @ self.panel.cum_samples.T           # cumulative inside each panel at its nodes,
        out *= self._panel_scales()[..., None]       # scaled and shifted in place
        out += prefix[..., :-1, None]
        return out.reshape(out.shape[:-2] + (-1,))

    def cum_at(self, fvals, xq) -> np.ndarray:
        """int_0^{xq} f dx at arbitrary points, clipped to [0, xmax] (a NaN point is a ConfigError).

        `fvals` is shaped (..., n_nodes) as in `cumulative`, after a stack's rules axis; a
        scalar `xq` gives shape (...), a 1-D `xq` (..., len(xq)).  As in `_read_gram`, a point's
        value is the integral up to the edge lo below it plus du (g . m~(v)) on its panel, g the
        samples of 2 u f there and m~ the last column of `head`; each (rule, point) item takes
        the same small products whatever the other points and rules of the call.
        """
        g, prefix = self._series(fvals)
        B, P, xs = math.prod(self.u_edges.shape[:-1]), self.n_panels, np.ravel(xq)
        g, prefix = g.reshape(B, -1, P, self.q), prefix.reshape(B, -1, P + 1)
        idx, sel, du, v = _locate(self.u_edges.reshape(B, P + 1), xs)
        out = np.take_along_axis(prefix, idx[:, None, :], -1)      # the integral up to lo
        if sel.size:
            i, j = np.divmod(sel, len(xs))
            gm = _head_at(self.panel, v, True) @ np.swapaxes(g[i, :, idx.ravel()[sel]], 1, 2)   # (n, 1, rows)
            out[i, :, j] += du[:, None] * gm[:, 0]
        return out.reshape(np.shape(fvals)[:-1] + np.shape(xq))


def _pad_edges(edges) -> np.ndarray:
    """1-D u-edge arrays stacked, each padded to the most panels by repeating its top edge."""
    P = max(map(len, edges))
    return np.stack([np.concatenate((e, e[-1:].repeat(P - len(e)))) for e in edges])


def _map_panel(edges: np.ndarray, panel: ReferencePanel) -> tuple[np.ndarray, np.ndarray]:
    """The panel's nodes and weights mapped onto each [edges[..., k], edges[..., k+1]]."""
    lo, hi = edges[..., :-1], edges[..., 1:]
    scale, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    nodes = (mid[..., None] + scale[..., None] * panel.ug).reshape(edges.shape[:-1] + (-1,))
    return nodes, (scale[..., None] * panel.wg).reshape(nodes.shape)


def _from_edges(xmax: float, u_edges: np.ndarray, q: int) -> HalfLineRule:
    """The rule on [0, xmax] whose panels in u are `u_edges` (1-D, or a stack's 2-D), each a copy of
    `reference_panel(q)`: the one constructor of every rule."""
    panel = reference_panel(q)
    u, w_u = _map_panel(u_edges, panel)
    return HalfLineRule(float(xmax), u_edges, u * u, w_u * 2.0 * u, panel)


#: doublings of the refinement ladder's floor width delta on each side of the branch point
LADDER_LEVELS = 7


def _panel_edges(xmax: float, refine_x, refine_width, n_panels: int) -> list[np.ndarray]:
    """u-edges of rules on [0, xmax], one per entry i of `skew._refinement`'s 1-D arrays, in one pass.
    A rule is plain (n_panels equal u-panels) unless 0 < refine_x[i] < 1.1 xmax and delta =
    max(refine_width[i], width / 512) is below the plain width.  Then the plain edges within tol = delta / 1000
    of a ladder edge u* + delta (0, +-2^m, m <= LADDER_LEVELS), u* = sqrt(refine_x[i]), give way to the
    ladder edges inside (tol, sqrt(xmax) - tol), sorted per row."""
    umax = np.sqrt(xmax)
    base, width = umax * np.linspace(0.0, 1.0, n_panels + 1), umax / n_panels
    delta = np.maximum(refine_width, width / 512.0)[:, None]
    on = ((0.0 < refine_x) & (refine_x < 1.1 * xmax))[:, None] & (delta < width)
    step, tol = 2.0 ** np.arange(LADDER_LEVELS + 1), 1e-3 * delta
    new = np.sqrt(np.where(on, refine_x[:, None], 0.0)) + delta * np.r_[-step, 0.0, step]
    new[~on | (new <= tol) | (new >= base[-1] - tol)] = np.nan       # a NaN is a dropped point
    old = np.tile(base, (len(refine_x), 1))
    old[:, 1:-1][(np.abs(base[1:-1, None] - new[:, None, :]) <= tol[..., None]).any(-1)] = np.nan
    rows = np.sort(np.concatenate((old, new), axis=1), axis=1)
    return [r[:k] for r, k in zip(rows, np.count_nonzero(~np.isnan(rows), axis=1))]


def half_line_rule(xmax: float, n_panels: int = 24, q: int = 16) -> HalfLineRule:
    """The plain rule on [0, xmax]: n_panels equal panels in u, each a copy of `reference_panel(q)`,
    the one read-only q-point panel of the process; xmax must be finite and positive and n_panels
    an integer >= 2.  Truncations to [0, z] need no panel edge at z (`EpsilonTransform.truncated_gram`);
    a rule refined toward the weight's branch point is `skew.rule_for_t`'s.
    """
    xmax, n_panels = check_real("xmax", xmax, 0.0), check_count("n_panels", n_panels, 2)
    return _from_edges(xmax, np.sqrt(xmax) * np.linspace(0.0, 1.0, n_panels + 1), q)


def finite_rule(a: float, b: float, n_panels: int = 12, q: int = 16):
    """Plain composite Gauss-Legendre nodes/weights on [a, b], a < b finite.

    An inverse-square-root endpoint singularity is absorbed by the u^2 map
    instead: a + half_line_rule(b - a), or its mirror b - half_line_rule(b - a).
    """
    a = check_real("a", a)
    b, n_panels = check_real("b", b, a), check_count("n_panels", n_panels, 1)
    return _map_panel(np.linspace(a, b, n_panels + 1), reference_panel(q))


class EpsilonTransform:
    """eps(f)(x) = KAPPA_EPSILON * (int_0^x f - int_x^xmax f) for sampled f.

    `fvals` is shaped (..., n_nodes): one transform per row of a stack,
    all computed together.  It holds the samples as `fvals`, the one copy
    its callers read, and precomputes the cumulative table once;
    evaluation at the rule's own nodes is a lookup, and arbitrary points go
    through `HalfLineRule.cum_at`.  Linear in f; eps(f)' = f at interior
    points.
    """

    def __init__(self, rule: HalfLineRule, fvals):
        self.rule = rule
        self.fvals = np.asarray(fvals)
        self.cumulative = rule.cumulative(self.fvals)   # int_0^{x_i} f at the nodes

    @cached_property
    def total(self) -> np.ndarray:
        """int_0^xmax f, shaped (...), on first use; `HalfLineRule.integrate` refuses a non-finite sample."""
        return self.rule.integrate(self.fvals)

    def gram_rows(self) -> np.ndarray:
        """The z-free table of the truncated skew Gram (1/2) int_0^z (f_a F_b - f_b F_a) of the
        k rows of `fvals`, F_a = int_0 f_a: at each panel edge e_0 = 0, ..., e_P the strict upper
        triangle of the Gram truncated there, then F_a(e), k (k + 1) / 2 numbers, shaped
        (P + 1, k (k + 1) / 2) after a stack's rules axis.  Each row is a running sum of
        per-panel blocks, antisymmetrised before they are summed; a stack's padding panels add
        exact zeros, so each rule's own rows are bitwise those of the rule alone."""
        r, q, P = self.rule, self.rule.q, self.rule.n_panels
        f = self.fvals.reshape(math.prod(r.u_edges.shape[:-1]), -1, r.n_nodes)   # (rules, k, n)
        (B, k, _), (a, b) = f.shape, _upper(f.shape[1])
        fw = (f * r.w.reshape(B, 1, -1)).reshape(B, k, P, q).transpose(0, 2, 1, 3)     # (B, P, k, q)
        out = np.zeros((B, P + 1, len(a) + k), dtype=fw.dtype)
        fw.sum(-1, out=out[:, 1:, len(a):])                       # int over each panel of f_a
        blocks = fw @ self.cumulative.reshape(B, k, P, q).transpose(0, 2, 3, 1)          # (B, P, k, k)
        del fw
        np.subtract(blocks[..., a, b], blocks[..., b, a], out=out[:, 1:, :len(a)])
        out[:, 1:, :len(a)] *= 0.5
        np.cumsum(out, axis=1, out=out)
        return out.reshape(r.u_edges.shape[:-1] + out.shape[1:])

    def truncated_gram(self, z) -> np.ndarray:
        """The skew Gram (1/2) int_0^z (f_a F_b - f_b F_a) of a (k, n_nodes) `fvals` at each entry of a z of
        any shape: z.shape + (k, k), after a stack's rules axis, exactly antisymmetric; z = inf gives the full
        Gram, z <= 0 the empty one, and NaN a ConfigError (`_locate`).  Read off `gram_rows` by `_read_gram`,
        with the head samples taken from `fvals`; no z need be a panel edge, and a z's Gram depends on it alone."""
        r, zs = self.rule, np.asarray(z, dtype=float)
        edges = r.u_edges.reshape(-1, r.n_panels + 1)                       # one row per rule
        rows = self.gram_rows()
        f = self.fvals.reshape(len(edges), -1, r.n_panels, r.q)
        out = _read_gram(rows.reshape(-1, rows.shape[-1]), np.arange(len(edges)) * (r.n_panels + 1),
                         edges, r.panel, zs.ravel(), lambda i, p, x: f[i, :, p])
        return np.moveaxis(_unpack(out), -1, 0).reshape(r.u_edges.shape[:-1] + zs.shape + (f.shape[1],) * 2)

    def at_nodes(self) -> np.ndarray:
        """eps(f) at the rule nodes, shaped like `fvals`."""
        out = self.cumulative - 0.5 * self.total[..., None]
        out *= 2.0 * KAPPA_EPSILON
        return out

    def __call__(self, xq):
        """eps(f)(xq), shaped (...) for scalar xq and (..., len(xq)) otherwise."""
        F = self.rule.cum_at(self.fvals, xq)
        F -= 0.5 * (self.total if np.ndim(xq) == 0 else self.total[..., None])
        F *= 2.0 * KAPPA_EPSILON
        return F


@cache
def _upper(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a k x k matrix, the order of a
    Gram table row (`EpsilonTransform.gram_rows`), built once per k and read-only."""
    upper = np.triu_indices(k, 1)
    for a in upper:
        a.setflags(write=False)
    return upper


def _unpack(packed) -> np.ndarray:
    """Antisymmetric k x k matrices from strict upper triangles (..., k (k - 1) / 2) in the order of
    `_upper`, by one gather from the triangles, their negations and a zero, as a (k, k, batch) array."""
    *lead, P = packed.shape
    k, flat = (1 + math.isqrt(8 * P + 1)) // 2, packed.reshape(math.prod(lead), P).T
    at = np.full((k, k), 2 * P)
    at[_upper(k)], at[_upper(k)[::-1]] = np.arange(P), np.arange(P, 2 * P)
    return np.concatenate((flat, -flat, np.zeros((1, flat.shape[1]), flat.dtype)))[at]


def _read_gram(rows, start, edges, panel: ReferencePanel, xq, sample) -> np.ndarray:
    """Truncated skew Grams of k functions on each of a set of rules at each point of a 1-D xq,
    read off their z-free `EpsilonTransform.gram_rows`, packed as by `_upper`: (len(edges), len(xq), k (k-1)/2).

    Rule i's rows (`rows`, (n_rows, k (k + 1) / 2)) start at rows[start[i]], one per edge of
    its own panels, `edges[i]` (u-edges padded as by `_pad_edges`; the padding is never read).  The
    row of the edge lo below a point (`_locate`) gives the Gram up to lo, and F_lo.  The piece of the
    point's own panel from lo up to it is du^2 g K g^T + du (g m) F_lo^T, antisymmetrised, with g the
    panel's samples of 2 u f, taken by one `sample(i, p, x)` call (the k functions at the q nodes x
    (n, q) of panel p (n,) of rule i (n,), shaped (n, k, q)) once per distinct (rule, panel), and K, m
    the reference `head` quotients at v(xq), once per distinct v, both gathered back to the items.
    Each (rule, point) item takes the same small products whatever the other points and rules.
    """
    q, k = panel.q, (math.isqrt(8 * rows.shape[-1] + 1) - 1) // 2
    idx, sel, du, v = _locate(edges, xq)
    at = (np.asarray(start)[:, None] + idx).ravel()          # the row of each item's edge lo
    out = rows[at, :-k]
    if sel.size:        # the piece of each point's panel from its lower edge lo up to the point
        keys, item = np.unique(sel // idx.shape[1] * edges.shape[1] + idx.ravel()[sel], return_inverse=True)
        i, p = np.divmod(keys, edges.shape[1])                                # the distinct panels
        u = _map_panel(np.stack((edges[i, p], edges[i, p + 1]), -1), panel)[0]
        g = (sample(i, p, u * u) * (2.0 * u[:, None, :]))[item]
        gh = np.concatenate((g.real, g.imag), 1) if np.iscomplexobj(g) else g   # one real product
        vs, at_v = np.unique(v, return_inverse=True)
        gh = gh @ _head_at(panel, vs)[at_v]
        if np.iscomplexobj(g):
            gh = gh[:, :k] + 1j * gh[:, k:]
        H = gh[..., :q] @ np.swapaxes(g, 1, 2)
        del g
        H *= du[:, None, None]
        H += gh[..., q:] * rows[at[sel], None, -k:]
        H *= du[:, None, None]
        a, c = _upper(k)
        H = H[:, a, c] - H[:, c, a]
        H *= 0.5
        out[sel] += H
    return out.reshape(len(edges), idx.shape[1], -1)


def _locate(edges, xq):
    """Each point of a 1-D xq (below 0 read as 0, NaN a ConfigError) on each row of `edges`, padded as
    by `_pad_edges`, in one lookup: idx (len(edges), len(xq)), the edge at or below it, the rule's top
    edge at or past it, so the padding is never entered; sel, the flat indices of the items inside a
    panel, and for those du = u(xq) - lo, lo the edge below, and its place v in [-1, 1]."""
    xq = np.asarray(xq, dtype=float)
    if np.isnan(xq).any():
        raise ConfigError("a quadrature point is NaN")
    uq = np.sqrt(np.maximum(xq, 0.0))
    own = np.count_nonzero(edges < edges[:, -1:], axis=1)[:, None]        # the top edge's place
    idx = np.minimum(np.count_nonzero(edges[:, None, :] <= uq[:, None], axis=2) - 1, own)
    sel = np.flatnonzero(idx < own)
    (i, j), p = np.divmod(sel, len(uq)), idx.ravel()[sel]
    du = uq[j] - edges[i, p]
    return idx, sel, du, np.minimum(2.0 * du / (edges[i, p + 1] - edges[i, p]) - 1.0, 1.0)


def _head_at(panel: ReferencePanel, v, m_only: bool = False) -> np.ndarray:
    """`panel.head` in Chebyshev T_l(v) at each v (n,), one fixed-shape product per v: (n, q, q + 1),
    or with `m_only` its last column m~(v) alone, (n, 1, q)."""
    T = np.cos(np.arange(2 * panel.q - 1) * np.arccos(v)[:, None])[:, None]      # (n, 1, 2q - 1)
    if m_only:
        return T @ np.ascontiguousarray(panel.head[..., -1])
    return (T @ panel.head.reshape(len(panel.head), -1)).reshape(-1, panel.q, panel.q + 1)
