"""Largest-eigenvalue CDF via Pfaffians and via Fredholm determinants.

Primary route.  The ordered eigenvalue integral truncated at z equals (up to
a z- and t-independent constant) the Pfaffian of the truncated moment matrix
<(1 - chi_[z,inf)) L_j, (1 - chi_[z,inf)) L_k>_1, so

    P(lambda_max < z)  =  oint e^{M t} Pf(Mtrunc(t, min(z, xmax))) dt
                          ------------------------------------------
                          oint e^{M t} Pf(Mtrunc(t, xmax)) dt

with [0, xmax] the quadrature's half-line, where the truncated model's CDF is
exactly 1.  The unknown normalisation constants of the de Bruijn identity and
of the eigenvalue density cancel in this ratio ("never computed from first
principles").  Any monic family gives the same Pfaffian (unit-triangular
congruence), so the truncated matrices are built straight from Laguerre.
Every z shares one contour, the circle for default_z_inf, and Mtrunc(t, z) is
read off one z-free table per node (running sums of its skew Gram up to each
panel edge, `EpsilonTransform.gram_rows`), so one pass over the contour serves
a whole z grid and a z's value does not depend on the other z of the grid.

Half the contour.  The weight's (t - tau_tilde x)^(-1/2) is principal and
the Laguerre basis real, so f(conj t) = conj f(t); node n-1-k of the circle
is the conjugate of node k (weight -conj).  Both routes evaluate only the
upper nodes 0 .. n/2 - 1 and sum 2i Im sum_upper w e^{M t} f row by row,
so values are exactly real.  `anchor_gap` reports the anchor's shortfall
against the exact normaliser 2 pi i (1 + tau)^{M/2} M^{N/2 - 1} / Gamma(N/2) Pf(G0),
Pf(G0) in closed form through the Selberg integral (`CdfEngine._log_exact_anchor`).

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
global t^(-1/2) so log det M = -N log t + const).  Lambda = (1/2) log det M
is continued along one walk over the contour nodes that never crosses the
cut: each step is (1/2) Log of the ratio of neighbouring nodes' det M, on
the branch picked by the trapezoid rule over their resolvent traces.  Lambda
is z-free, so each engine builds it once, from the same bundles as the
Nystrom determinants; sqrt(det(I - K chi)) follows by sign continuity along
the same walk, and all residual constants cancel against the anchor.  det M
is carried as (sign, log|det M|), so Lambda survives det M underflowing to
0, as it does at every node of (12, 48, 1) and (16, 32, 1).  The walk ends
at the last upper node i0, where Lambda is (1/2) i arg det M(t_i0), so
e^Lambda sqrt(det(I - K chi)) is a real constant times Pf(Mtrunc).

The Nystrom determinant.  K is discretised on n nodes of [z, xmax] (2n x 2n),
the image z + (xmax - z) x~ of one reference rule on [0, 1], with eps taken
by EpsilonTransform on that rule, both eps(x - y) and eps(L_j w) (the
latter shifted by eps(L_j w)(z), read off the node rule).  Apart from
eps(x - y) every entry is a bilinear form in the N functions L_j w and
eps(L_j w) through mu, so I - K is a unit-triangular matrix minus a rank-2N
product.  Sylvester's identity det(I_2n - U R) = det(I_2N - R U) (with the
triangular factor moved across, see `fredholm_det`) takes the Nystrom
determinant as one 2N x 2N determinant per z, at O(n N (N + 20) + N^3) per
node and z in place of O((2n)^3); nothing keyed on z is cached, and nothing
of the Pfaffian route's skew tables is read.

Node blocks.  Both routes build what is z-free once per engine over one plan,
runs of consecutive upper contour nodes in node order of about BLOCK_BYTES of
samples of L_j w each (`_node_blocks`), one stacked rule per block
(`HalfLineRule.stack`) on the panel edges that one batched call gives every node
(`_edges`).  The Pfaffian route keeps one table for all upper nodes:
per node and own panel edge (no padding) the strict upper triangle of the Gram
truncated there and the integrals F up to it, nodes x panels x N (N + 1) / 2
complex numbers in all (4.7 MB at (16, 64, 1), 0.3 MB at (4, 8, 1)).  A pass
re-cuts the nodes by its (node, z) pairs, reads per (node, z) the row below z and
the piece of z's panel, from L_j w on its q nodes alone (`_read_gram`), and takes
one batched Pfaffian per block; a block samples L_j w once per distinct (node, panel)
and evaluates the head table once per distinct place of a z in its panel, both shared
by every (node, z) they serve.  Grams stay packed strict upper triangles throughout: a
block's triangles, one lane per (node, z), are the array the one elimination (`skew._eliminate`)
overwrites in place, and no N x N matrix is formed.  The Fredholm
route keeps one stacked KernelBundle per block.  Each pass reads eps(L_j w) off the node
rule at the live z only, samples L_j w at the Nystrom points, which every node shares, takes
eps there from the one transform on the Nystrom rule, and takes one batched determinant over
(nodes x z), in z chunks within the budget.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PrecisionLossError, check_count, check_real
from .kernels import KernelBundle
from .params import ContourSpec, ModelParams, mp_edges
from .quadrature import (KAPPA_EPSILON, EpsilonTransform, HalfLineRule, _pad_edges, _panel_edges,
                         _read_gram, half_line_rule, reference_panel)
from .skew import SkewProductTable, _eliminate, _refinement, _weighted_laguerre, default_xmax, pfaffian
from .zonal import _log_residue

__all__ = [
    "CdfResult",
    "truncated_moment_matrix",
    "logdet_m_derivative",
    "fredholm_det",
    "loe_direct_cdf",
    "CdfEngine",
]


#: a CDF value is refused past this many digits lost to contour cancellation,
#: or RANGE_TOL outside [0, 1]
MAX_LOST_DIGITS, RANGE_TOL = 13.0, 1e-6

#: the bytes budget of a block of contour nodes: its complex samples (N x n_quad) while the
#: z-free state of either route is built, then `_pair_bytes` per z of a Pfaffian pass; and of
#: a z chunk of `fredholm_det`, its Nystrom arrays
BLOCK_BYTES = 2**19


@dataclass(frozen=True)
class CdfResult:
    z: float
    value: float
    route: str
    diagnostics: dict = field(default_factory=dict)


def default_z_inf(params: ModelParams) -> float:
    """Reach of an engine's contour: the circle encloses the cut [0, tau_tilde z_inf] (capped)."""
    _, b_plus = mp_edges(params.gamma)
    return 3.0 * (1.0 + params.tau) * b_plus + 10.0 / params.M


def default_n_nystrom(params: ModelParams) -> int:
    """Nystrom node count max(80, 10 N), rounded up to a multiple of 20 (one
    20-node panel each): 80 up to N = 8, 120 at N = 12, 160 at N = 16."""
    return 20 * math.ceil(max(80, 10 * params.N) / 20)


def _nystrom_panels(n) -> int:
    """20-node panels of an n-node Nystrom rule; ConfigError unless n = 20 k, k >= 2."""
    if check_count("n_nystrom", n, 40) % 20:
        raise ConfigError(f"n_nystrom must be a multiple of 20, got {n!r}")
    return int(n) // 20


def truncated_moment_matrix(params: ModelParams, t: complex, z,
                            rule: HalfLineRule | None = None) -> np.ndarray:
    """N x N antisymmetric matrix <L_j, L_k>_1 truncated to [0, z]^2.

    A 1-D z gives the stack (len(z), N, N), every truncation read off one
    z-free half-line `rule` (default `rule_for_t(params, t)`); z <= 0 gives
    zeros and a NaN z is a ConfigError.  A 1-D t and a stacked `rule` put a t axis first.
    """
    return SkewProductTable.build(params, t, kmax=params.N - 1, z=z, rule=rule).entries


def logdet_m_derivative(params: ModelParams, t: complex, bundle: KernelBundle | None = None):
    """d/dt log det M(t) = - int S1(x, x) / (t - tau_tilde x) dx (one per t of a stacked bundle)."""
    if bundle is None:
        bundle = KernelBundle.build(params, t)
    return -bundle.resolvent_trace()


def _pair_bytes(N: int, q: int) -> int:
    """Bytes one (node, z) pair of a Pfaffian pass keeps for its result: its samples of L_j w on
    the q nodes of z's panel and the N x N head piece `_read_gram` forms before packing it, both
    complex.  With the real head tables, products and packed Gram beside them a pair peaks at
    about 4.3 times this at N = 4, 2.3 at N = 16 (tracemalloc)."""
    return 16 * N * (q + N)


@functools.cache
def _nystrom_rule(n_panels: int) -> HalfLineRule:
    """The reference Nystrom rule on [0, 1] (20-node panels); [z, xmax] takes z + (xmax - z) x."""
    return half_line_rule(1.0, n_panels, 20)


def fredholm_det(bundle: KernelBundle, z, n_nystrom: int | None = None):
    """det(I - K chi_[z, inf)) of the Nystrom matrix on [z, xmax], z scalar or 1-D,
    after the t axis of a stacked bundle.

    Each z's grid is x = z + s x~, w = s w~ with s = xmax - z and (x~, w~) the
    one reference rule on [0, 1], the u^2 map of `half_line_rule`.  The Nystrom
    matrix samples the three smooth entries at its n nodes and takes the sign
    kernel eps(x - y) in the lower-left entry through the rule's exact
    cumulative, s EpsilonTransform on the reference rule, which keeps the
    scheme spectrally accurate despite the diagonal kink.  Its determinant is
    taken through Sylvester's identity, not by factorising the 2n x 2n matrix.
    With Phi, E the N x n samples of L_j w and eps(L_j w), W = diag(w),
    kappa = KAPPA_EPSILON and Eps the n x n matrix of eps on the grid,
    I - K = L - U R with L = [[I, 0], [Eps, I]] (det 1), U = diag(Phi^T, E^T)
    and R = [[-mu E W, 2 kappa mu Phi W], [-mu E W, -mu^T Phi W]], so

        det(I - K) = det(I_2N - Q),
        Q = [[-mu P - 2 kappa mu Y, 2 kappa mu X], [-mu P + mu^T Y, -mu^T X]]

    with P = E W Phi^T, X = P^T and Y = Phi W eps(Phi)^T, Eps never formed.
    E comes from the same transform as Y: E = eps(Phi) + c with c = eps(L_j w)(z)
    + kappa S and S = Phi W 1, so P = Y^T + c S^T.  eps(L_j w)(z) is read off the
    bundle's own transform, once per call for every z; no Nystrom point is.
    A (t, z) pair then costs O(n N (N + 20)) plus O(N^3), in place of
    O((2n)^3), and nothing of size n^2 is allocated.  Each z must be a finite
    real, not a boolean or a string (ConfigError); z < 0 gives the z = 0 value,
    as K lives on [0, xmax], and z past the quadrature horizon gives 1.
    n_nystrom (default_n_nystrom(bundle.params)) is whole 20-node panels, >= 2.
    The z are taken in chunks whose Nystrom arrays, about four N x n complex per
    (t, z), stay within BLOCK_BYTES, one z at least; each chunk samples Phi once
    for every t and z and takes one transform and one batched 2N x 2N
    determinant.  A z's value does not depend on the other z.
    """
    shape = np.shape(z)
    zs = np.maximum([check_real("z", v) for v in np.asarray(z, dtype=object).ravel()], 0.0)
    lead, N = np.shape(bundle.t), bundle.params.N
    out = np.ones(lead + (zs.size,), dtype=complex)
    live = np.flatnonzero(zs < bundle.table.rule.xmax)
    if live.size:
        n = default_n_nystrom(bundle.params) if n_nystrom is None else n_nystrom
        ref = _nystrom_rule(_nystrom_panels(n))
        eps_z = np.swapaxes(bundle.table.eps(zs[live])[..., :N, :], -1, -2)   # (..., live, N)
        chunk = max(1, BLOCK_BYTES // (math.prod(lead) * 64 * N * n))
        for part in np.array_split(np.arange(live.size), -(-live.size // chunk)):
            out[..., live[part]] = _sylvester_det(bundle, ref, zs[live[part], None], eps_z[..., part, :])
    out = out.reshape(lead + shape)
    return complex(out) if out.ndim == 0 else out


def _sylvester_det(bundle: KernelBundle, ref: HalfLineRule, z: np.ndarray, eps_z) -> np.ndarray:
    """det(I_2N - Q) of `fredholm_det` at each z of a (nz, 1) chunk, after the bundle's t axis,
    with eps_z the (..., nz, N) values eps(L_j w)(z)."""
    s = bundle.table.rule.xmax - z                                   # (nz, 1)
    x, w = z + s * ref.x, (s * ref.w)[:, None, :]
    phi = bundle.factor(x, False)                                    # (..., nz, N, n)
    eps = EpsilonTransform(ref, phi)
    S = eps.total * s                                                # (..., nz, N)
    e = eps.at_nodes()
    e *= s[..., None]
    del eps
    Y = (phi * w) @ np.swapaxes(e, -1, -2)
    P = np.swapaxes(Y, -1, -2) + (eps_z + KAPPA_EPSILON * S)[..., :, None] * S[..., None, :]
    X = np.swapaxes(P, -1, -2)
    mu, two_k, eye = bundle.mu[..., None, :, :], 2.0 * KAPPA_EPSILON, np.eye(bundle.params.N)
    mu_p, mu_t = mu @ P, np.swapaxes(mu, -1, -2)
    return np.linalg.det(np.block([[eye + mu_p + two_k * (mu @ Y), -two_k * (mu @ X)],
                                   [mu_p - mu_t @ Y, eye + mu_t @ X]]))


def loe_direct_cdf(params: ModelParams, z: float) -> float:
    """Null-Wishart largest-eigenvalue CDF by a direct Pfaffian ratio.

    No contour: the tau = 0 weight has no t content beyond a global factor
    t^(-1/2), so the t-integral drops out of the ratio.  Numerator and
    denominator are the tau = 0 moment matrices at t = 1 truncated at z and
    at z = inf, from one skew Gram on one rule, so z >= its xmax gives exactly 1.
    z must be a finite real, not a boolean or a string (ConfigError), and z <= 0 gives exactly 0.
    """
    if check_real("z", z) <= 0.0:
        return 0.0
    num, den = pfaffian(truncated_moment_matrix(ModelParams(params.N, params.M, 0.0), 1.0, [z, math.inf]))
    if not (np.isfinite(num) and np.isfinite(den) and num != 0 and den != 0):
        raise FloatingPointError(f"LOE Pfaffians at z = {z:g} and over the half-line are "
                                 f"{num} and {den}: they under- or overflow at this (N, M)")
    return float(np.real(num / den))


class CdfEngine:
    """Evaluator of P(lambda_max < z) on one contour with one anchor per route.

    One engine fixes (N, M, tau), all discretisation knobs and with them one
    contour, the circle for z_inf = default_z_inf(params): its geometry is
    capped, so it encloses the live part of the branch cut for every z, and
    both routes use it.  `cdf_grid` is the one evaluation path.  A single pass
    over the upper contour nodes serves every z of a grid; the first pass of
    each route also evaluates xmax = default_xmax(params), where the CDF is 1,
    and caches that sum as the route's anchor, which later calls reuse.  Each
    route keeps what is z-free for the engine's life, built on its first pass
    over the one node plan of `_node_blocks` (the module docstring's "Node
    blocks"): the Pfaffian route one table of truncated-Gram rows
    (`_gram_table`), the Fredholm route one stacked KernelBundle per block
    (`_bundles`) and the Lambda walk (`_lam`).  Every node's panel edges come
    from one batched call; the reference panel and the Laguerre basis are the
    process's shared ones (`reference_panel`, `build_basis`), and nothing is
    keyed on z.  n_panels >= 2 and q >= 4 must be integers, radius_factor finite
    and >= 1 (no boolean), and n_nystrom (default_n_nystrom(params) if None) a
    multiple of 20, >= 40.
    """

    def __init__(self, params: ModelParams, *, radius_factor: float = 1.0,
                 n_panels: int = 24, q: int = 16, n_nystrom: int | None = None):
        check_count("n_panels", n_panels, 2)
        check_count("q", q, 4)
        self.params = params
        self.radius_factor = radius_factor
        self.n_panels = n_panels
        self.q = q
        self.n_nystrom = default_n_nystrom(params) if n_nystrom is None else n_nystrom
        _nystrom_panels(self.n_nystrom)
        if check_real("radius_factor", radius_factor, 0.0) < 1.0:
            raise ConfigError(f"radius_factor must be >= 1, got {radius_factor!r}")
        self.z_inf, self.xmax = default_z_inf(params), default_xmax(params)
        self.contour = self.contour_for(self.z_inf)
        self._anchors: dict = {}     # route -> (contour sum at xmax / i, anchor_gap)

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
        if tt > 0.0:
            rate = M * (0.5 / tt - 1.0)
            cut = min(cut, 24.0 / rate)
        margin = max(0.5, cut / 8.0)
        radius = (cut / 2.0 + margin) * self.radius_factor
        # radius_factor grows the circle leftward, pinning the rightmost
        # point at cut + margin: max Re t (hence the e^{M t} cancellation
        # floor) is invariant under radius doubling
        center = complex(cut + margin - radius, 0.0)
        # node count: a floor of 64, trapezoid aliasing of e^{M t}, and
        # clearance from the enclosed cut endpoints
        n = max(64, 2 * math.ceil(1.6 * M * radius))
        if cut > 0:
            d_max = max(abs(center.real), cut - center.real)
            n = max(n, 2 * math.ceil(17.0 / math.log(radius / d_max)))
        right = center.real + radius * math.cos(math.pi / n)       # the rightmost node's Re t
        if M * right >= math.log(sys.float_info.max):
            p = self.params
            raise FloatingPointError(f"e^(M t) overflows at the contour's rightmost node, Re t = {right:.6g}, "
                                     f"at (N, M, tau) = ({p.N}, {p.M}, {p.tau:g}): the anchor would be nan")
        return ContourSpec.circle(center, radius, n)

    # ------------------------------------------------------------------ #
    # The one evaluation path
    # ------------------------------------------------------------------ #

    def cdf_grid(self, zs, route: str = "pfaffian") -> list[CdfResult]:
        """P(lambda_max < z) for every z of `zs`, in order, from one pass over the nodes.

        The sum over the upper nodes, 2i Im sum w e^{M t} f, makes each value
        exactly real; each z must be a finite real, not a boolean or a string
        (ConfigError), z <= 0 gives exactly 0, and z >= xmax is evaluated as
        xmax, the anchor's own column, so it gives exactly 1.0.  A z <= 0 carries only
        the circle's `node_count`; every other result also carries `anchor_gap` =
        |anchor / exact - 1| (exact less the sqrt|det M(t_i0)| the Fredholm Lambda leaves out;
        inf once the ratio passes e^700), `im_residual` (always 0.0; the benchmark harness
        reads it) and `cancellation_digits` = log10(sum |w e^{M t} f| / |sum w e^{M t} f|),
        the digits lost to cancellation in the contour sum (f is Pf on the Pfaffian route and
        e^Lambda sqrt(det) on the Fredholm route, which adds `sqrt_max_step` and `n_nystrom`).
        A z that loses more than MAX_LOST_DIGITS, or whose value leaves [0, 1] by more than
        RANGE_TOL, raises PrecisionLossError.  Each distinct z is evaluated once.

        A pass does only per-z work on the route's z-free tables, which the
        route's first pass builds (see the class docstring).  On both routes a
        z's value does not depend on the other z of the call: a fresh engine's
        `cdf(z)` is bitwise that z inside a grid.  On the Pfaffian route it does
        not depend on BLOCK_BYTES either.
        """
        if route not in ("pfaffian", "fredholm"):
            raise ConfigError(f"unknown route {route!r}")
        zs = [check_real("z", z) for z in zs]
        live = [z for z in zs if z > 0.0]
        n = self.contour.node_count
        results = iter(())
        if live:
            pts = [min(z, self.xmax) for z in live] + ([self.xmax] if route not in self._anchors else [])
            uniq, inv = np.unique(pts, return_inverse=True)
            f, diags = self._node_values(uniq, route)
            c, h = self.contour, n // 2
            terms = (c.weights[:h] * np.exp(self.params.M * c.nodes[:h]))[:, None] * f
            # summed row by row, so a column's sum does not depend on the other columns
            total, mag = 2.0 * sum(terms).imag[inv], 2.0 * sum(np.abs(terms))[inv]
            if len(pts) > len(live):
                if not (np.isfinite(total[-1]) and total[-1] != 0):
                    raise FloatingPointError(
                        f"{route} anchor at xmax = {self.xmax:g} is {total[-1]}i: "
                        "the contour sum under- or overflows at this (N, M, tau)")
                gap = (math.log(abs(total[-1])) - self._log_exact_anchor
                       + (self._lam[1] if route == "fredholm" else 0.0))
                self._anchors[route] = (float(total[-1]),
                                        abs(math.expm1(gap)) if gap < 700.0 else math.inf)
            anchor, anchor_gap = self._anchors[route]
            with np.errstate(divide="ignore", invalid="ignore"):
                digits = np.where(mag > 0, np.log10(mag / np.abs(total)), 0.0)
            vals = total[:len(live)] / anchor
            in_range = (vals >= -RANGE_TOL) & (vals <= 1.0 + RANGE_TOL)
            bad = np.flatnonzero(~in_range | (digits[:len(live)] > MAX_LOST_DIGITS))
            if bad.size:
                k = bad[0]
                raise PrecisionLossError(
                    f"{route} CDF at z = {live[k]:g} is {vals[k]:.6g} and lost "
                    f"{digits[k]:.1f} digits to contour cancellation (budget {MAX_LOST_DIGITS:g})")
            results = iter([CdfResult(z, float(vals[k]), route, {
                "im_residual": 0.0, "node_count": n, "anchor_gap": anchor_gap,
                "cancellation_digits": float(digits[k]), **diags[inv[k]]})
                for k, z in enumerate(live)])
        return [next(results) if z > 0.0 else CdfResult(z, 0.0, route, {"node_count": n})
                for z in zs]

    def cdf(self, z: float, route: str = "pfaffian") -> CdfResult:
        return self.cdf_grid([z], route)[0]

    @functools.cached_property
    def _log_exact_anchor(self) -> float:
        """log |2 pi i (1 + tau)^{M/2} M^{N/2 - 1} / Gamma(N/2) Pf(G0)|, G0 the tau = 0 moment
        matrix at t = 1, in closed form.  By de Bruijn's identity |Pf(G0)| is 2^{-N/2} / N! times
        the integral over (0, inf)^N of |Delta(x)| prod x^{(M-N-1)/2} e^{-M x/2}, which x = 2 y / M
        turns into (2/M)^{NM/2} times the Selberg integral of Laguerre type with gamma = 1/2:
        prod_{j<N} Gamma((M-N+1+j)/2) Gamma((j+3)/2) / Gamma(3/2).  Finite where Pf(G0) underflows."""
        N, M = self.params.N, self.params.M
        log_pf0 = (0.5 * N * M * math.log(2.0 / M) - math.lgamma(N + 1.0) - 0.5 * N * math.log(2.0)
                   + sum(math.lgamma(0.5 * (M - N + 1 + j)) + math.lgamma(0.5 * (j + 3)) - math.lgamma(1.5)
                         for j in range(N)))
        return (math.log(2.0 * math.pi) + 0.5 * M * math.log1p(self.params.tau)
                + _log_residue(M, 0.5 * N) + log_pf0)

    @functools.cached_property
    def _edges(self) -> list[np.ndarray]:
        """u-edges of each upper node's rule (`rule_for_t`), from one batched call for both routes."""
        t = self.contour.nodes[:self.contour.node_count // 2]
        return _panel_edges(*_refinement(self.params, t), self.n_panels)

    @functools.cached_property
    def _padded_edges(self) -> np.ndarray:
        """`_edges` padded as `_pad_edges` pads them, the one array `_read_gram` finds each z in."""
        return _pad_edges(self._edges)

    @functools.cached_property
    def _gram_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every upper node's z-free `EpsilonTransform.gram_rows` over its own panels, one
        row per panel edge, in one table, and each node's first row.  Built once per engine,
        on its first Pfaffian pass, in `_node_blocks` on stacked rules straight into the table."""
        N, count = self.params.N, np.array([len(e) for e in self._edges])
        start = np.cumsum(count) - count
        rows = np.empty((count.sum(), N * (N + 1) // 2), dtype=complex)
        for nodes in self._node_blocks():
            rule = self._rule(nodes)
            phi = _weighted_laguerre(self.params, self.contour.nodes[nodes], rule.x, N - 1)
            for i, r in zip(nodes, EpsilonTransform(rule, phi).gram_rows()):
                rows[start[i]:start[i] + count[i]] = r[:count[i]]
        return rows, start

    def _grams(self, nodes, zs) -> np.ndarray:
        """Truncated moment matrices (len(nodes), len(zs), N (N - 1) / 2), packed as `_read_gram`
        packs them, at the given upper nodes, read off the table: per (node, z) only the row below
        z and the piece of z's panel, from L_j w on its q nodes alone, once per (node, panel)."""
        rows, start = self._gram_table
        t, N = self.contour.nodes[nodes], self.params.N
        return _read_gram(rows, start[nodes], self._padded_edges[nodes], reference_panel(self.q),
                          np.asarray(zs, dtype=float),
                          lambda i, p, x: _weighted_laguerre(self.params, t[i], x, N - 1))

    def _node_values(self, zs, route: str):
        """f at every upper contour node (rows) and z (columns), and per-z diagnostics; on the
        Pfaffian route one in-place elimination of `_grams`' packed triangles per `_node_blocks`
        block of the z, lanes (node, z) last."""
        if route == "fredholm":
            return self._fredholm_values(zs)
        f = np.empty((self.contour.node_count // 2, len(zs)), dtype=complex)
        for nodes in self._node_blocks(len(zs)):
            g = self._grams(nodes, zs)
            f[nodes] = _eliminate(g.reshape(-1, g.shape[-1]).T.copy()).reshape(len(nodes), -1)
        return f, [{}] * len(zs)

    def _rule(self, nodes) -> HalfLineRule:
        return HalfLineRule.stack(self.xmax, [self._edges[i] for i in nodes], self.q)

    def _node_blocks(self, n_z: int = 0) -> list[np.ndarray]:
        """Upper nodes cut into runs of consecutive nodes, in node order, of about BLOCK_BYTES
        each.  A block counts each node's complex samples (N x n_quad) when n_z is 0, for the
        z-free builds of both routes, and otherwise n_z pairs of `_pair_bytes`, for a Pfaffian
        pass, so a dense z grid gets smaller blocks.  Panel counts change smoothly along the
        circle, so neighbouring nodes pad a stacked rule little."""
        N, n_quad = self.params.N, np.array([len(e) - 1 for e in self._edges]) * self.q
        used = np.full(len(n_quad), n_z * _pair_bytes(N, self.q)) if n_z else 16 * N * n_quad
        return np.split(np.arange(len(n_quad)), np.flatnonzero(np.diff(np.cumsum(used) // BLOCK_BYTES)) + 1)

    @functools.cached_property
    def _bundles(self) -> list[KernelBundle]:
        """One stacked KernelBundle per `_node_blocks` block (the samples of L_j w, their epsilon
        transform and mu), built once per engine, on its first Fredholm pass."""
        return [KernelBundle.build(self.params, self.contour.nodes[b], rule=self._rule(b))
                for b in self._node_blocks()]

    @functools.cached_property
    def _lam(self) -> tuple[np.ndarray, float]:
        """Lambda at every upper node, and (1/2) log |det M(t_i0)|, which Lambda leaves out.

        One walk over the upper nodes 0 .. i0 = n/2 - 1 in node order, the order of the
        bundles, runs from just above the positive real axis to just above arg t = pi.  Lambda
        is a `cumsum` of steps read off one stacked `slogdet`, on the branch the trapezoid rule
        over the resolvent traces picks, and (1/2) i arg det M(t_i0) at i0: relative in modulus,
        so det M may underflow, with the phase of sqrt(det M) that f(conj t) = conj f(t) needs."""
        p, nodes = self.params, self.contour.nodes[:self.contour.node_count // 2]
        sign, logabs = np.linalg.slogdet(np.concatenate([b.table.entries for b in self._bundles]))
        i = np.argmin(np.isfinite(logabs))                  # the first non-finite one, if any
        if not np.isfinite(logabs[i]):
            raise FloatingPointError(f"log |det M| at contour node {i} (t = {nodes[i]:.6g}) is {logabs[i]} "
                                     f"at (N, M, tau) = ({p.N}, {p.M}, {p.tau:g})")
        d = np.concatenate([logdet_m_derivative(p, b.t, bundle=b) for b in self._bundles])
        step = 0.5 * np.diff(logabs) + 0.5j * np.angle(sign[1:] / sign[:-1])
        est = 0.25 * np.diff(nodes) * (d[:-1] + d[1:])
        lam = np.cumsum(np.r_[0, step + 1j * np.pi * np.round((est.imag - step.imag) / np.pi)])
        return lam - lam[-1] + 0.5j * np.angle(sign[-1]), 0.5 * logabs[-1]

    def _fredholm_values(self, zs):
        """e^Lambda sqrt(det(I - K chi_[z, inf))) at every upper-half node and z: one batched
        Nystrom determinant per bundle, each z's root continued by sign along the walk of `_lam`
        from its principal value at i0.  `sqrt_max_step` is each z's largest jump of the root
        between neighbours, relative to the root stepped to."""
        r = np.sqrt(np.concatenate([fredholm_det(b, zs, self.n_nystrom) for b in self._bundles]))
        flips = np.where((r[1:] * r[:-1].conj()).real < 0, -1.0, 1.0)
        parity = np.cumprod(np.vstack((np.ones(len(zs)), flips)), axis=0)
        r *= parity * parity[-1]
        max_step = np.max(abs(np.diff(r, axis=0)) / np.maximum(abs(r[1:]), 1e-300), axis=0)
        return (np.exp(self._lam[0])[:, None] * r,
                [{"sqrt_max_step": float(s), "n_nystrom": self.n_nystrom} for s in max_step])
