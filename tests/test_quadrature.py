import functools
import math

import numpy as np
import pytest

from wishart_lab import (ConfigError, EpsilonTransform, KAPPA_EPSILON, QuadratureError,
                         finite_rule, half_line_rule, quadrature, reference_panel)


@pytest.fixture(scope="module")
def rule():
    return half_line_rule(30.0, n_panels=24, q=16)


class TestHalfLineRule:
    def test_gamma_identity(self, rule):
        # int_0^inf x^{M-N} e^{-M x} = Gamma(M-N+1) / M^{M-N+1}, N=4, M=8
        val = rule.integrate(rule.x**4 * np.exp(-8 * rule.x))
        assert val == pytest.approx(24 / 8**5, rel=1e-13)

    def test_zero_integrand(self, rule):
        assert rule.integrate(0.0 * rule.x) == 0.0

    def test_half_integer_powers_absorbed(self, rule):
        # the u^2 substitution handles x^{(M-N-1)/2} for even M-N
        val = rule.integrate(rule.x**1.5 * np.exp(-4 * rule.x))
        assert val == pytest.approx(math.gamma(2.5) / 4**2.5, rel=1e-13)

    def test_endpoint_absorbing_finite_rule(self):
        # [a, b] with the u^2 map at b is b - half_line_rule(b - a), at a its shift a + ...
        r = half_line_rule(1.0, n_panels=8, q=16)
        x = 1.0 - r.x
        assert np.sum(r.w * (1 - x) ** -0.5) == pytest.approx(2.0, abs=1e-8)
        x = 2.0 + r.x
        assert np.sum(r.w * (x - 2) ** -0.5) == pytest.approx(2.0, abs=1e-8)

    def test_cumulative_against_closed_form(self, rule):
        F = rule.cumulative(np.exp(-rule.x))
        assert np.max(np.abs(F - (1 - np.exp(-rule.x)))) < 1e-14
        q = np.array([0.37, 2.0, 11.5, 29.99])
        Fq = rule.cum_at(np.exp(-rule.x), q)
        assert np.max(np.abs(Fq - (1 - np.exp(-q)))) < 1e-14

    def test_offset_interval(self):
        # the rule on [2, 9] is 2 + half_line_rule(7)
        r = half_line_rule(7.0, n_panels=10, q=12)
        x = 2.0 + r.x
        f = np.exp(-x)
        assert r.integrate(f) == pytest.approx(np.exp(-2) - np.exp(-9), rel=1e-13)
        assert np.max(np.abs(r.cumulative(f) - (np.exp(-2) - np.exp(-x)))) < 1e-14

    def test_refinement_convergence(self):
        # doubling the panel count moves a smooth integral by < 1e-9 relative
        f = lambda x: np.cos(3 * x) * np.exp(-2 * x)
        v1, v2 = (r.integrate(f(r.x)) for r in (half_line_rule(30.0, n_panels=n, q=16) for n in (24, 48)))
        assert abs(v1 - v2) / abs(v2) < 1e-9

    def test_nonfinite_sample_aborts_with_node(self, rule):
        f = np.ones(rule.n_nodes)
        f[17] = np.nan
        with pytest.raises(QuadratureError, match="node 17"):
            rule.integrate(f)
        with pytest.raises(QuadratureError, match=f"node 17 \\(x={rule.x[17]:.6g}\\)"):
            EpsilonTransform(rule, f).total          # it returned nan

    def test_nonfinite_stacked_sample_names_its_row_and_node(self, rule):
        # it indexed the nodes with the flat index: a raw IndexError (387 of 384)
        f = np.ones((2, rule.n_nodes))
        f[1, 3] = np.nan
        with pytest.raises(QuadratureError, match=f"row 1, node 3 \\(x={rule.x[3]:.6g}\\)"):
            rule.integrate(f)


def ladder_edges(xmax, n_panels, refine_x=None, refine_width=None):
    """The refined u-edges of one rule, one ladder point at a time: the reference the batched
    `quadrature._panel_edges` must match bitwise (None for NaN)."""
    umax = np.sqrt(xmax)
    base, width = umax * np.linspace(0.0, 1.0, n_panels + 1), umax / n_panels
    if refine_x is None or refine_width is None or not 0.0 < refine_x < 1.1 * xmax:
        return base
    delta = max(refine_width, width / 512.0)
    if delta >= width:
        return base
    u_star, tol = np.sqrt(refine_x), 1e-3 * delta
    new = np.unique([u_star] + [u_star + sgn * delta * 2.0**m for m in range(8) for sgn in (-1.0, 1.0)])
    new = new[(new > base[0] + tol) & (new < base[-1] - tol)]
    old = [e for e in base[1:-1] if np.min(np.abs(e - new), initial=np.inf) > tol]
    return np.unique(np.concatenate((base[[0, -1]], old, new)))


def refined_rule(xmax, refine_x, n_panels=24, q=16):
    """The rule on [0, xmax] refined toward refine_x down to 1/64 of the plain panel width, built as
    `skew.rule_for_t` builds its rules: one row of `quadrature._panel_edges`."""
    width = np.sqrt(xmax) / n_panels / 64.0
    edges = quadrature._panel_edges(xmax, np.array([refine_x]), np.array([width]), n_panels)[0]
    return quadrature._from_edges(xmax, edges, q)


class TestPanelEdges:
    # (xmax, n_panels, refine_x, refine_width): the cases where the ladder takes another branch
    CASES = {
        "ladder inside the plain panels": (30.0, 24, 3.0, 1e-3),
        "width floor (base / 512)": (30.0, 24, 3.0, 1e-9),
        "width at least the base width": (30.0, 24, 3.0, 1.0),
        "refine_x at 1.1 xmax": (30.0, 24, 33.0, 1e-3),
        "refine_x past 1.1 xmax": (30.0, 24, 40.0, 1e-3),
        "refine_x at or below 0": (30.0, 24, -1.0, 1e-3),
        "ladder clipped at 0": (30.0, 24, 1e-4, 1e-3),
        "ladder clipped at sqrt(xmax)": (30.0, 24, 29.9, 1e-3),
        "old edges under ladder points": (30.0, 24, float(np.sqrt(30.0) / 2) ** 2, float(np.sqrt(30.0) / 24 / 64)),
        "no width": (30.0, 24, 3.0, None),
        "no refinement": (30.0, 24, None, None),
    }

    @pytest.mark.parametrize("n_panels", [2, 5, 24])
    def test_batched_rows_are_one_row_rules_and_the_pointwise_ladder(self, n_panels):
        cases = [(x, n_panels, rx, rw) for x, _, rx, rw in self.CASES.values()]
        rng = np.random.default_rng(n_panels)
        for k in range(200):
            xmax = float(rng.uniform(0.5, 60.0))
            cases.append((xmax, n_panels, float(rng.uniform(-0.1, 1.2) * xmax),
                          None if k % 3 == 0 else float(10.0 ** rng.uniform(-9.0, 0.5))))
        nan = lambda v: np.nan if v is None else v
        for xmax in {c[0] for c in cases}:
            mine = [c for c in cases if c[0] == xmax]
            rows = quadrature._panel_edges(xmax, np.array([nan(c[2]) for c in mine]),
                                           np.array([nan(c[3]) for c in mine]), n_panels)
            for row, (_, n, rx, rw) in zip(rows, mine):
                want = ladder_edges(xmax, n, rx, rw)
                assert np.array_equal(row, want)
                one, = quadrature._panel_edges(xmax, np.array([nan(rx)]), np.array([nan(rw)]), n)
                assert np.array_equal(one, want)

    def test_each_case_takes_its_branch(self):
        plain = ladder_edges(30.0, 24)
        rows = dict(zip(self.CASES, quadrature._panel_edges(
            30.0, *(np.array([np.nan if c[k] is None else c[k] for c in self.CASES.values()]) for k in (2, 3)),
            24)))
        for name in ("width at least the base width", "refine_x at 1.1 xmax", "refine_x past 1.1 xmax",
                     "refine_x at or below 0", "no width", "no refinement"):
            assert np.array_equal(rows[name], plain), name
        # 17 ladder points; each old edge within tol of one gives way to it, and each clipped one is gone
        assert len(rows["ladder inside the plain panels"]) == len(rows["width floor (base / 512)"]) == 25 + 17
        assert len(rows["ladder clipped at 0"]) < 25 + 17 and rows["ladder clipped at 0"][0] == 0.0
        assert len(rows["ladder clipped at sqrt(xmax)"]) < 25 + 17
        assert rows["ladder clipped at sqrt(xmax)"][-1] == np.sqrt(30.0)
        assert len(rows["old edges under ladder points"]) == 25 + 17 - 5     # at u*, u* +- w, u* +- 2w
        assert quadrature.LADDER_LEVELS == 7


class TestEpsilonTransform:
    def test_truncated_gram_and_cum_at_need_no_panel_edge(self):
        # f_a = e^-x, f_b = e^-2x from x0: F_a = A - b and F_b = (A^2 - b^2) / 2 with
        # A = e^-x0, b = e^-z, and int_{x0}^z f_a F_b = gram_ab + F_a F_b / 2 from the skew
        # Gram, at z inside panels, on a panel edge, at x0 and past the ends; each z's value
        # is its own.  The rule on [x0, 30] is x0 + half_line_rule(30 - x0), queried at z - x0.
        x0 = 0.1
        for r in (half_line_rule(30.0 - x0), refined_rule(30.0 - x0, 3.0 - x0)):
            eps = EpsilonTransform(r, np.exp(-np.outer([1.0, 2.0], x0 + r.x)))
            y = np.array([0.2, 1.9, 7.67, r.u_edges[5] ** 2, 29.8, 0.0, 29.9, 39.9, -1.1])  # z - x0
            gram, F = eps.truncated_gram(y), r.cum_at(eps.fvals, y)
            a, b = np.exp(-x0), np.exp(-np.clip(x0 + y, x0, 30.0))
            fa_Fb = 0.5 * (a * a * (a - b) - (a**3 - b**3) / 3.0)
            fb_Fa = 0.5 * a * (a * a - b * b) - (a**3 - b**3) / 3.0
            assert np.allclose(F, [a - b, 0.5 * (a * a - b * b)], rtol=1e-14, atol=1e-17)
            cross = gram + 0.5 * F.T[:, :, None] * F.T[:, None, :]       # int f_a F_b
            assert np.allclose(cross[:, 0, 1], fa_Fb, rtol=1e-14, atol=1e-17)
            assert np.allclose(cross[:, 1, 0], fb_Fa, rtol=1e-14, atol=1e-17)
            assert np.array_equal(gram, -np.swapaxes(gram, 1, 2))
            assert np.all(gram[[5, 8]] == 0.0) and np.all(F[:, [5, 8]] == 0.0)
            for j, z in enumerate(y):
                assert np.array_equal(eps.truncated_gram([z])[0], gram[j])
                assert np.array_equal(r.cum_at(eps.fvals, z), F[:, j])

    def test_antisymmetric_split_vanishes(self, rule):
        # f even about x0 with the window inside the domain
        x0 = 6.0
        f = np.exp(-((rule.x - x0) ** 2))
        eps = EpsilonTransform(rule, f)
        assert abs(eps(x0)) < 1e-12

    def test_total_integral_limit(self, rule):
        eps = EpsilonTransform(rule, np.exp(-rule.x))
        assert eps(29.9999) == pytest.approx(KAPPA_EPSILON * 1.0, abs=1e-10)
        assert eps(0.0) == pytest.approx(-KAPPA_EPSILON * 1.0, abs=1e-10)

    def test_derivative_is_2kappa_f(self, rule):
        # central finite differences of eps(f) equal 2 kappa f = f
        f = lambda x: np.exp(-x) * (1 + 0.5 * np.sin(x))
        eps = EpsilonTransform(rule, f(rule.x))
        h = 1e-5
        for x0 in np.linspace(0.5, 18.0, 10):
            fd = (eps(x0 + h) - eps(x0 - h)) / (2 * h)
            assert fd == pytest.approx(2 * KAPPA_EPSILON * f(x0), abs=1e-6)

    def test_linearity(self, rule):
        rng = np.random.default_rng(11)
        f = rng.normal(size=rule.n_nodes)
        g = rng.normal(size=rule.n_nodes)
        a, b = 1.7, -0.4
        lhs = EpsilonTransform(rule, a * f + b * g).at_nodes()
        rhs = a * EpsilonTransform(rule, f).at_nodes() + b * EpsilonTransform(rule, g).at_nodes()
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_complex_values(self, rule):
        f = np.exp(-rule.x) * (2 + 1j - 0.25 * rule.x) ** -0.5
        eps = EpsilonTransform(rule, f)
        v = eps(np.array([1.0, 4.0]))
        assert v.dtype == complex and np.all(np.isfinite(v))


def test_stacked_samples_match_row_by_row(rule):
    """Leading axes of the samples are a batch: each row transforms alone."""
    rng = np.random.default_rng(5)
    f = (rng.normal(size=(3, rule.n_nodes)) + 1j * rng.normal(size=(3, rule.n_nodes))) \
        * np.exp(-rule.x)
    xq = np.array([0.37, 2.0, 11.5, 29.99])
    eps = EpsilonTransform(rule, f)
    batched = [rule.cumulative(f), rule.cum_at(f, xq), rule.cum_at(f, 3.0),
               eps.at_nodes(), eps(xq), eps(3.0)]
    for i in range(3):
        row = EpsilonTransform(rule, f[i])
        single = [rule.cumulative(f[i]), rule.cum_at(f[i], xq), rule.cum_at(f[i], 3.0),
                  row.at_nodes(), row(xq), row(3.0)]
        for b, s in zip(batched, single):
            assert np.shape(b[i]) == np.shape(s)
            assert np.max(np.abs(b[i] - s)) <= 1e-14 * np.max(np.abs(s))


@pytest.mark.parametrize("counts", [(7, 13), (11, 14), (15, 24, 19)])
def test_stacked_rules_match_rule_by_rule(counts):
    """A stack of rules on different edges, padded to the most panels, gives each
    rule's own cumulative, cumulative at points, z-free Gram table (padding rows
    repeating the top one) and truncated Gram bit for bit.  The samples do
    not decay, so the top panels, which padding would regroup, count."""
    panel, rng = reference_panel(8), np.random.default_rng(11)
    edges = [np.sqrt(6.0) * np.linspace(0.0, 1.0, n + 1) ** 1.5 for n in counts]
    rules = [quadrature.HalfLineRule(6.0, e, u * u, 2.0 * u * w_u, panel)
             for e in edges for u, w_u in [quadrature._map_panel(e, panel)]]
    stack = quadrature.HalfLineRule.stack(6.0, edges, 8)
    xq = np.array([0.3, 5.9, 6.0, 7.0] + [(0.5 * (e[-2] + e[-1])) ** 2 for e in edges])
    n = stack.n_nodes
    f = rng.normal(size=(len(counts), 3, n)) + 1j * rng.normal(size=(len(counts), 3, n))
    cum, gram = stack.cumulative(f), EpsilonTransform(stack, f).truncated_gram(xq)
    rows = EpsilonTransform(stack, f).gram_rows()
    at, at_one = stack.cum_at(f, xq), stack.cum_at(f, 6.0)
    assert at.shape == (len(counts), 3, len(xq)) and at_one.shape == (len(counts), 3)
    for i, r in enumerate(rules):
        own = f[i, :, :r.n_nodes]
        assert np.array_equal(stack.x[i, :r.n_nodes], r.x) and np.all(stack.w[i, r.n_nodes:] == 0)
        assert np.array_equal(cum[i, :, :r.n_nodes], r.cumulative(own))
        assert np.array_equal(at[i], r.cum_at(own, xq)) and np.array_equal(at_one[i], r.cum_at(own, 6.0))
        assert np.array_equal(gram[i], EpsilonTransform(r, own).truncated_gram(xq))
        assert np.array_equal(rows[i, :r.n_panels + 1], EpsilonTransform(r, own).gram_rows())
        assert np.all(rows[i, r.n_panels:] == rows[i, r.n_panels])


class TestStackedSamples:
    """A stack of a 3-panel and a 5-panel rule at q = 8 takes samples shaped (rules, k, n_nodes)."""

    @pytest.fixture(scope="class")
    def stack(self):
        edges = [np.sqrt(6.0) * np.linspace(0.0, 1.0, n + 1) for n in (3, 5)]
        return edges, quadrature.HalfLineRule.stack(6.0, edges, 8)

    def test_integrate_takes_each_rules_rows_against_its_own_weights(self, stack):
        # it took the (rules, n) weights as a matrix: a raw matmul ValueError
        edges, r = stack
        f = np.stack((np.exp(-r.x), np.exp(-2.0 * r.x)), 1)              # (rules, 2, n)
        got = r.integrate(f)
        assert got.shape == (2, 2)
        assert np.max(np.abs(got - [1.0 - np.exp(-6.0), 0.5 * (1.0 - np.exp(-12.0))])) <= 1e-12
        for i, e in enumerate(edges):
            own = quadrature.HalfLineRule.stack(6.0, [e], 8)
            assert np.array_equal(got[i], own.integrate(f[i:i + 1, :, :own.n_nodes])[0])
        assert np.array_equal(got, EpsilonTransform(r, f).total)

    def test_nonfinite_stacked_sample_names_its_rule_row_and_node(self, stack):
        _, r = stack
        f = np.ones((2, 3, r.n_nodes))
        f[1, 2, 5] = np.inf
        with pytest.raises(QuadratureError, match=f"row 1, 2, node 5 \\(x={r.x[1, 5]:.6g}\\)"):
            r.integrate(f)
        with pytest.raises(QuadratureError, match=f"row 1, 2, node 5 \\(x={r.x[1, 5]:.6g}\\)"):
            EpsilonTransform(r, f).total             # it returned inf

    @pytest.mark.parametrize("shape", [(2, 40), (40,), (1, 1, 40), (3, 1, 40), (2, 1, 39), (2, 1, 1, 40)])
    def test_other_shapes_are_config_errors(self, stack, shape):
        # (2, 40) gave a (2, 2, 40) cumulative and a total with cross-rule entries, and
        # cum_at and eps at points raised raw reshape ValueErrors
        _, r = stack
        f = np.ones(shape)
        calls = [lambda: r.integrate(f), lambda: r.cumulative(f), lambda: r.cum_at(f, 1.0),
                 lambda: EpsilonTransform(r, f)]
        for call in calls:
            with pytest.raises(ConfigError, match="shaped \\(rules, k, n_nodes\\)"):
                call()


class TestCumAt:
    """int_0^x e^-x = 1 - e^-x read off the rule at points: in the panel at u = 0, on interior
    edges (exactly, on the last rule, whose edges square exactly), at and past the top edge of a
    padded stack, and below 0."""

    @pytest.fixture(scope="class")
    def stack(self):
        edges = [np.sqrt(6.0) * np.linspace(0.0, 1.0, n + 1) ** 1.5 for n in (7, 13)]
        edges.append(np.array([0.0, 0.5, 1.0, 1.5, 2.0, np.sqrt(6.0)]))
        return edges, quadrature.HalfLineRule.stack(6.0, edges, 16)

    def test_closed_form_at_edges_and_inside_the_first_panel(self, stack):
        edges, r = stack
        f = np.exp(-r.x)[:, None]                                         # (rules, 1, n)
        for i, e in enumerate(edges):
            xq = np.concatenate(((0.3 * e[1]) ** 2 * np.array([1e-9, 1.0, 3.0]), e[1:-1] ** 2))
            got = r.cum_at(f, xq)[i, 0]
            assert np.max(np.abs(got - (1.0 - np.exp(-xq)))) <= 1e-15
        assert np.all(r.cum_at(f, 0.0) == 0.0)

    def test_top_edge_past_xmax_and_below_zero_are_clipped(self, stack):
        _, r = stack
        f = np.exp(-r.x)[:, None]
        top = r.cum_at(f, [6.0, 6.5, np.inf, -1.0, -np.inf])
        assert np.all(top[..., 1:3] == top[..., :1]) and np.all(top[..., 3:] == 0.0)
        assert np.max(np.abs(top[..., 0] - (1.0 - np.exp(-6.0)))) <= 1e-15

    def test_a_point_alone_is_bitwise_its_value_in_a_batch(self, stack):
        edges, r = stack
        rng = np.random.default_rng(3)
        f = rng.normal(size=(3, 3, r.n_nodes)) + 1j * rng.normal(size=(3, 3, r.n_nodes))
        xq = np.array([0.0, 1e-8, 0.7, edges[0][4] ** 2, edges[1][9] ** 2, 5.99, 6.0, 8.0])
        batch = r.cum_at(f, xq)
        for j, x in enumerate(xq):
            assert np.array_equal(r.cum_at(f, x), batch[..., j])
            assert np.array_equal(r.cum_at(f, xq[j:j + 1])[..., 0], batch[..., j])

    def test_a_nan_point_is_a_config_error(self, rule):
        f = np.exp(-rule.x)
        for xq in (np.nan, [1.0, np.nan]):
            with pytest.raises(ConfigError, match="NaN"):
                rule.cum_at(f, xq)
            with pytest.raises(ConfigError, match="NaN"):
                EpsilonTransform(rule, f)(xq)


def locate_per_rule(edges, xq):
    """The panel lookup as it was taken rule by rule, with one `searchsorted` per rule on its own
    (unpadded) u-edges; the reference for `quadrature._locate`: idx, sel, du and v."""
    uq = np.sqrt(np.maximum(np.asarray(xq, dtype=float), 0.0))
    own = np.array([e.searchsorted(e[-1]) for e in edges])
    idx = np.minimum(np.array([e.searchsorted(uq, side="right") for e in edges]) - 1, own[:, None])
    sel = np.flatnonzero(idx < own[:, None])
    i, j = np.divmod(sel, len(uq))
    flat, start = np.concatenate(edges), np.cumsum([0] + [len(e) for e in edges])
    p = idx.ravel()[sel] + start[i]
    lo, hi = flat[p], flat[p + 1]
    du = uq[j] - lo
    return idx, sel, du, np.minimum(2.0 * du / (hi - lo) - 1.0, 1.0)


class TestPanelLookup:
    """`_locate` on a padded stack of rules with 3, 7 and 5 panels (and an unrefined one), at
    points inside panels, on interior and top edges, past xmax and below 0."""

    EDGES = [np.sqrt(6.0) * np.linspace(0.0, 1.0, n + 1) ** 1.5 for n in (3, 7, 5)] \
        + [quadrature._panel_edges(6.0, np.array([2.0]), np.array([0.02]), 4)[0]]

    def points(self, rng):
        on_edges = np.concatenate(self.EDGES) ** 2
        return np.concatenate((rng.uniform(-1.0, 7.0, 200), on_edges, [6.0, 6.0 + 1e-12, 9.0, np.inf],
                               [0.0, -0.0, -2.0, -np.inf, 1e-300]))

    def test_one_lookup_is_the_per_rule_searchsorted(self):
        xq = self.points(np.random.default_rng(2))
        padded = quadrature._pad_edges(self.EDGES)
        assert padded.shape == (4, max(map(len, self.EDGES)))
        got, want = quadrature._locate(padded, xq), locate_per_rule(self.EDGES, xq)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        idx, sel = got[:2]
        # the top edge, and every point past it, sits at the rule's own top edge, never in padding
        top = [len(e) - 1 for e in self.EDGES]
        assert np.array_equal(idx[:, -9:-5], np.repeat(top, 4).reshape(4, 4))
        assert not np.isin(np.arange(idx.size).reshape(idx.shape)[:, -9:-5], sel).any()
        # 0 and below read as 0: the first panel's lower edge, at du = 0 and v = -1
        below = np.isin(sel % len(xq), np.arange(len(xq) - 5, len(xq) - 1))
        assert np.all(idx[:, -5:-1] == 0) and np.all(got[2][below] == 0.0) and np.all(got[3][below] == -1.0)

    def test_a_nan_point_is_a_config_error(self):
        with pytest.raises(ConfigError, match="NaN"):
            quadrature._locate(quadrature._pad_edges(self.EDGES), [1.0, np.nan])


def test_read_gram_over_many_points_is_its_one_point_calls():
    """`_read_gram` takes each distinct (rule, panel) sample and each distinct head position once;
    over 120 points on a padded stack, two of whose rules share their edges and so their head
    positions, every (rule, point) item is bitwise the call on that rule and point alone."""
    rng = np.random.default_rng(8)
    edges = [np.sqrt(6.0) * np.linspace(0.0, 1.0, n + 1) ** 1.5 for n in (7, 4, 7)]
    stack = quadrature.HalfLineRule.stack(6.0, edges, 8)
    f = rng.normal(size=(3, 3, stack.n_nodes)) + 1j * rng.normal(size=(3, 3, stack.n_nodes))
    rows = EpsilonTransform(stack, f).gram_rows()
    start, calls, g = np.arange(3) * rows.shape[1], [], f.reshape(3, 3, -1, 8)

    def sample(first):          # the samples of rule first + i of the stack on its panel p
        return lambda i, p, x: calls.append((first + i, p)) or g[first + i, :, p]

    xq = np.concatenate((rng.uniform(0.0, 6.0, 112), edges[0][2:4] ** 2, [6.0, 7.0, -1.0, 1e-9, 0.2, 0.2]))
    read = functools.partial(quadrature._read_gram, rows.reshape(-1, rows.shape[-1]))
    panel, padded = reference_panel(8), quadrature._pad_edges(edges)
    many = read(start, padded, panel, xq, sample(0))
    (i, p), = calls
    assert len(set(zip(i, p))) == len(i) < 3 * len(xq)
    for j, x in enumerate(xq):
        assert np.array_equal(read(start, padded, panel, [x], sample(0))[:, 0], many[:, j])
        for r in range(3):
            one = read(start[r:r + 1], padded[r:r + 1], panel, [x], sample(r))[0, 0]
            assert np.array_equal(one, many[r, j])


def test_truncated_grams_unpack_the_packed_read_exactly():
    """`_read_gram` hands over strict upper triangles in the order of `_upper`, and
    `truncated_gram` unpacks them: A + A^T == 0 exactly, with the packed entries above the
    diagonal, on a padded stack of complex and of real samples."""
    rng = np.random.default_rng(9)
    edges = [np.sqrt(6.0) * np.linspace(0.0, 1.0, n + 1) ** 1.5 for n in (7, 4)]
    stack = quadrature.HalfLineRule.stack(6.0, edges, 8)
    xq = np.concatenate((rng.uniform(0.0, 6.0, 30), [0.0, 6.0, 7.0, 1e-9]))
    for f in (rng.normal(size=(2, 5, stack.n_nodes)) * (1 + 2j), rng.normal(size=(2, 5, stack.n_nodes))):
        eps = EpsilonTransform(stack, f)
        rows, g = eps.gram_rows(), f.reshape(2, 5, -1, 8)
        packed = quadrature._read_gram(rows.reshape(-1, rows.shape[-1]), np.arange(2) * rows.shape[1],
                                       quadrature._pad_edges(edges), reference_panel(8), xq,
                                       lambda i, p, x: g[i, :, p])
        gram = eps.truncated_gram(xq)
        assert packed.shape == (2, len(xq), 10) and gram.shape == (2, len(xq), 5, 5)
        assert np.all(gram + np.swapaxes(gram, -1, -2) == 0) and gram.dtype == f.dtype
        a, c = quadrature._upper(5)
        assert np.array_equal(gram[..., a, c], packed)


def fresh_build(rule):
    """x, w, vinv and cum_ref of `rule` recomputed from its panel edges alone,
    with leggauss(q) and the Vandermonde inverse taken afresh."""
    q = rule.q
    ug, wg = np.polynomial.legendre.leggauss(q)
    lo, hi = rule.u_edges[:-1], rule.u_edges[1:]
    scale, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    u = (mid[:, None] + scale[:, None] * ug[None, :]).reshape(-1)
    w_u = (scale[:, None] * wg[None, :]).reshape(-1)
    vinv = np.linalg.inv(quadrature._legendre_values(ug, q - 1).T)
    return u * u, w_u * 2.0 * u, vinv, quadrature._legendre_cumulative(ug, q).T


class TestReferencePanel:
    @pytest.mark.parametrize("q", [4, 16, 20])
    @pytest.mark.parametrize("refine_x,x0", [(None, 0.0), (3.0, 0.0), (3.0, 2.0)])
    def test_shared_panel_rule_equals_fresh_build(self, q, refine_x, x0):
        # the rule on [x0, 30] is x0 + half_line_rule(30 - x0): the rule itself is checked
        panel = reference_panel(q)
        for _ in range(2):     # the second rule reuses the first one's panel
            r = half_line_rule(30.0 - x0, q=q) if refine_x is None else refined_rule(30.0 - x0, refine_x - x0, q=q)
            assert r.panel is panel
            for got, want in zip((r.x, r.w, panel.vinv, panel.cum_ref), fresh_build(r)):
                assert np.array_equal(got, want)

    def test_arrays_are_read_only(self):
        panel = reference_panel(16)
        for a in (panel.ug, panel.wg, panel.vinv, panel.cum_ref, panel.cum_samples, panel.head):
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("q", [4, 16, 20])
    def test_head_tables_match_gauss_on_the_piece(self, q):
        # K_ij(V) = int_{-1}^V l_i m_j and m_i(V) = int_{-1}^V l_i from the
        # Chebyshev tables against a q-point Gauss rule on [-1, V] itself
        panel = reference_panel(q)
        V = np.concatenate(([-1.0, -1.0 + 1e-12, -0.5, 0.0, 0.999999, 1.0],
                            np.random.default_rng(q).uniform(-1.0, 1.0, 50)))
        h = 0.5 * (V + 1.0)
        leg = quadrature._legendre_values(h[:, None] * (panel.ug + 1.0) - 1.0, q)
        ell = panel.vinv.T @ np.moveaxis(leg[:q], 0, 1)                   # l_i at the nodes
        m = panel.vinv.T @ np.moveaxis(quadrature._legendre_cumulative(None, q, leg), 0, 1)
        hw = (h[:, None] * panel.wg)[:, None, :]
        want_K, want_m = (ell * hw) @ np.swapaxes(m, 1, 2), (ell * hw).sum(axis=-1)
        T = np.cos(np.arange(2 * q - 1) * np.arccos(V)[:, None])
        tab = np.einsum("vl,lij->vij", T, panel.head)
        got_K = tab[..., :q] * ((V + 1.0) ** 2)[:, None, None]
        got_m = tab[..., q] * (V + 1.0)[:, None]
        assert np.max(np.abs(got_K - want_K)) <= 1e-14
        assert np.max(np.abs(got_m - want_m)) <= 1e-14
        assert np.all(got_K[0] == 0.0) and np.all(got_m[0] == 0.0)

    def test_cum_samples_is_cum_ref_times_vinv(self):
        panel = reference_panel(16)
        assert np.array_equal(panel.cum_samples, panel.cum_ref @ panel.vinv)
        assert panel.head is panel.head      # built once per panel

    @pytest.mark.parametrize("q", [3, 2.5, 16.0, True, "16", None])
    def test_q_must_be_an_integer_of_at_least_4(self, q):
        # refused before the cache: 16.0 and True hash like 16 and 1
        assert reference_panel(np.int64(16)) is reference_panel(16)
        with pytest.raises(ConfigError, match="q must be"):
            reference_panel(q)
        with pytest.raises(ConfigError, match="q must be"):
            finite_rule(0.0, 1.0, q=q)


@pytest.mark.parametrize("args, kwargs", [
    ((float("nan"),), {}), ((float("inf"),), {}), ((0.0,), {}), ((-1.0,), {}), ((True,), {}),
    (("30",), {}), ((10.0,), {"n_panels": 2.5}), ((10.0,), {"n_panels": 1}),
    ((10.0,), {"n_panels": True}), ((10.0,), {"n_panels": np.float64(4.0)})])
def test_half_line_rule_refuses_bad_input(args, kwargs):
    # nan / inf would otherwise give all-NaN rules, and a float n_panels a raw TypeError
    with pytest.raises(ConfigError, match="xmax|n_panels"):
        half_line_rule(*args, **kwargs)


@pytest.mark.parametrize("args, kwargs", [
    ((0.0, float("nan")), {}), ((float("nan"), 1.0), {}), ((0.0, float("inf")), {}),
    ((float("-inf"), 0.0), {}), ((1.0, 0.0), {}), ((1.0, 1.0), {}), ((False, 1.0), {}),
    ((0.0, 1.0), {"n_panels": 0}), ((0.0, 1.0), {"n_panels": 2.5}), ((0.0, 1.0), {"n_panels": True})])
def test_finite_rule_refuses_bad_input(args, kwargs):
    # finite_rule(0, nan) would otherwise give NaN nodes, n_panels = 0 an empty rule
    with pytest.raises(ConfigError, match="a must|b must|n_panels"):
        finite_rule(*args, **kwargs)


def test_finite_rule_accepts_one_panel_and_numpy_scalars():
    x, w = finite_rule(np.float64(0.0), np.int64(2), n_panels=np.int64(1), q=8)
    assert len(x) == 8 and np.sum(w) == pytest.approx(2.0, rel=1e-15)
