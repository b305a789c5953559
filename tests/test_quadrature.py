import math

import numpy as np
import pytest

from wishart_lab import (EpsilonTransform, KAPPA_EPSILON, QuadratureError,
                         epsilon_transform, finite_rule, half_line_rule,
                         integrate_halfline)


@pytest.fixture(scope="module")
def rule():
    return half_line_rule(30.0, n_panels=24, q=16)


class TestHalfLineRule:
    def test_gamma_identity(self, rule):
        # int_0^inf x^{M-N} e^{-M x} = Gamma(M-N+1) / M^{M-N+1}, N=4, M=8
        val = integrate_halfline(lambda x: x**4 * np.exp(-8 * x), rule)
        assert val == pytest.approx(24 / 8**5, rel=1e-13)

    def test_zero_integrand(self, rule):
        assert integrate_halfline(lambda x: 0.0 * x, rule) == 0.0

    def test_half_integer_powers_absorbed(self, rule):
        # the u^2 substitution handles x^{(M-N-1)/2} for even M-N
        val = integrate_halfline(lambda x: x**1.5 * np.exp(-4 * x), rule)
        assert val == pytest.approx(math.gamma(2.5) / 4**2.5, rel=1e-13)

    def test_endpoint_absorbing_finite_rule(self):
        x, w = finite_rule(0.0, 1.0, n_panels=8, q=16, sqrt_right=True)
        assert np.sum(w * (1 - x) ** -0.5) == pytest.approx(2.0, abs=1e-8)
        x, w = finite_rule(2.0, 3.0, n_panels=8, q=16, sqrt_left=True)
        assert np.sum(w * (x - 2) ** -0.5) == pytest.approx(2.0, abs=1e-8)

    def test_cumulative_against_closed_form(self, rule):
        F = rule.cumulative(np.exp(-rule.x))
        assert np.max(np.abs(F - (1 - np.exp(-rule.x)))) < 1e-14
        q = np.array([0.37, 2.0, 11.5, 29.99])
        Fq = rule.cum_at(np.exp(-rule.x), q)
        assert np.max(np.abs(Fq - (1 - np.exp(-q)))) < 1e-14

    def test_cumulative_matrix_matches(self, rule):
        f = np.cos(rule.x) * np.exp(-rule.x)
        assert np.max(np.abs(rule.cumulative_matrix() @ f - rule.cumulative(f))) < 1e-13

    def test_offset_interval(self):
        r = half_line_rule(9.0, n_panels=10, q=12, x0=2.0)
        f = np.exp(-r.x)
        assert r.integrate(f) == pytest.approx(np.exp(-2) - np.exp(-9), rel=1e-13)
        assert np.max(np.abs(r.cumulative(f) - (np.exp(-2) - np.exp(-r.x)))) < 1e-14

    def test_refinement_convergence(self):
        # doubling the panel count moves a smooth integral by < 1e-9 relative
        f = lambda x: np.cos(3 * x) * np.exp(-2 * x)
        v1 = integrate_halfline(f, half_line_rule(30.0, n_panels=24, q=16))
        v2 = integrate_halfline(f, half_line_rule(30.0, n_panels=48, q=16))
        assert abs(v1 - v2) / abs(v2) < 1e-9

    def test_breaks_become_panel_edges(self):
        breaks = [0.3, 2.0, 7.77]
        for refine_x in (None, 3.0):
            r = half_line_rule(30.0, refine_x=refine_x, x0=0.1, breaks=breaks + [-1.0, 0.1, 30.0, 40.0])
            plain = half_line_rule(30.0, refine_x=refine_x, x0=0.1)
            ub = np.sqrt(np.array(breaks) - 0.1)
            assert np.all(np.min(np.abs(r.u_edges[:, None] - ub), axis=0) == 0.0)
            # breaks outside (x0, xmax) add nothing
            assert len(r.u_edges) == len(plain.u_edges) + len(breaks)
            # the nodes below a break integrate exactly over [x0, z]
            for z in breaks:
                f = np.exp(-r.x)
                assert np.sum((r.w * f)[r.x < z]) == pytest.approx(np.exp(-0.1) - np.exp(-z), rel=1e-14)

    def test_breaks_make_no_degenerate_panel(self):
        # breaks a hair from each other, from a uniform edge and from xmax
        base = half_line_rule(16.0, n_panels=8)
        edge = base.u_edges[3] ** 2
        r = half_line_rule(16.0, n_panels=8, breaks=[2.0, 2.0 + 1e-15, edge + 1e-14, 16.0 - 1e-15])
        assert np.min(np.diff(r.u_edges)) > 1e-9 * 4.0
        assert r.u_edges[0] == 0.0 and r.u_edges[-1] == 4.0
        assert r.integrate(np.exp(-r.x)) == pytest.approx(1 - np.exp(-16.0), rel=1e-14)

    def test_nonfinite_sample_aborts_with_node(self, rule):
        f = np.ones(rule.n_nodes)
        f[17] = np.nan
        with pytest.raises(QuadratureError, match="node 17"):
            rule.integrate(f)


class TestEpsilonTransform:
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

    def test_function_wrapper(self, rule):
        val = epsilon_transform(lambda x: np.exp(-x), rule, 3.0)
        direct = EpsilonTransform(rule, np.exp(-rule.x))(3.0)
        assert val == direct

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
