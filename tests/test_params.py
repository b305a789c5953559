import numpy as np
import pytest

from wishart_lab import (ConfigError, ModelParams, make_contour, mp_density,
                         mp_edges, weight_w, weight_w0)

class TestModelParams:
    def test_derived_quantities(self):
        p = ModelParams(4, 8, 1.0)
        assert p.tau_tilde == pytest.approx(0.25)
        assert p.gamma**2 == pytest.approx(4 / 8)
        assert p.alpha == 4

    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.0, 10.0, 1e6])
    def test_tau_tilde_range(self, tau):
        p = ModelParams(4, 8, tau)
        assert 0.0 <= p.tau_tilde < 0.5

    @pytest.mark.parametrize("bad", [dict(N=3, M=8, tau=1.0),
                                     dict(N=4, M=4, tau=1.0),
                                     dict(N=4, M=3, tau=1.0),
                                     dict(N=0, M=8, tau=1.0),
                                     dict(N=4, M=8, tau=-0.1),
                                     dict(N=4, M=8, tau="one"),
                                     dict(N=4, M=8, tau=True),
                                     dict(N=4, M=8, tau=False),
                                     dict(N=True, M=8, tau=1.0),
                                     dict(N=4, M=True, tau=1.0)])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            ModelParams(**bad)


class TestWeights:
    def test_tau_zero_collapses_third_factor(self):
        p = ModelParams(4, 8, 0.0)
        assert weight_w(p, 1.0, 1.0) == pytest.approx(np.exp(-4.0))

    def test_closed_form_value(self):
        # e^{-16} * 4^{3/2} * (2 - 1)^{-1/2} = 8 e^{-16}
        p = ModelParams(4, 8, 1.0)
        assert weight_w(p, 2.0, 4.0) == pytest.approx(8.0 * np.exp(-16.0), rel=1e-14)

    def test_complex_branch_against_polar_oracle(self):
        # oracle: u^{-1/2} = |u|^{-1/2} e^{-i arg(u)/2} with arg in (-pi, pi)
        p = ModelParams(4, 8, 1.0)
        t, x = 1j, 4.0
        u = t - p.tau_tilde * x
        oracle = np.exp(-16.0) * 4.0**1.5 * abs(u) ** -0.5 * np.exp(-0.5j * np.angle(u))
        val = weight_w(p, t, x)
        assert val == pytest.approx(oracle, rel=1e-14)
        assert val.imag != 0.0
        # square of the branch factor times u recovers 1
        factor = val / (np.exp(-16.0) * 4.0**1.5)
        assert factor**2 * u == pytest.approx(1.0, rel=1e-13)

    def test_real_positive_above_branch_point(self):
        p = ModelParams(4, 8, 1.0)
        for x in (0.5, 1.0, 3.0):
            v = weight_w(p, 2.0, x)
            assert abs(np.imag(v)) == 0.0 and np.real(v) > 0

    def test_conjugation_symmetry(self):
        p = ModelParams(4, 8, 0.3)
        x = np.array([0.2, 1.7, 5.0])
        assert np.allclose(weight_w(p, 2 - 1j, x), np.conj(weight_w(p, 2 + 1j, x)))

    def test_w0_identity_with_w(self):
        # w(x)^2 * x (t - tau_tilde x) = w0(x); and w0 is not w^2
        p = ModelParams(4, 8, 1.0)
        x = np.linspace(0.3, 6.0, 7)
        t = 2.0 + 0.7j
        lhs = weight_w(p, t, x) ** 2 * x * (t - p.tau_tilde * x)
        assert np.allclose(lhs, weight_w0(p, x), rtol=1e-13)
        assert not np.allclose(weight_w(p, t, x) ** 2, weight_w0(p, x))

    @pytest.mark.parametrize("x", [0.0, -1.0, np.nan, np.inf, [1.0, np.nan], [2.0, 0.0]])
    def test_x_must_be_finite_and_positive(self, x):
        # 0 and -1 were a raw ValueError; NaN and inf a RuntimeWarning and NaN
        with pytest.raises(ConfigError, match="finite x > 0"):
            weight_w(ModelParams(4, 8, 1.0), 2 + 1j, x)

    @pytest.mark.parametrize("x", [-1.0, -1e-300, np.nan, np.inf, -np.inf, [1.0, np.nan], [2.0, -3.0]])
    def test_w0_x_must_be_finite_and_non_negative(self, x):
        # weight_w0(p, -1) returned 2980.96, e^M read off the wrong side of 0; NaN and inf were NaN or 0
        with pytest.raises(ConfigError, match="finite x >= 0"):
            weight_w0(ModelParams(4, 8, 1.0), x)

    def test_w0_at_zero_and_at_points(self):
        p = ModelParams(4, 8, 1.0)
        x = np.array([0.0, 0.5, 3.0])
        assert weight_w0(p, 0.0) == 0.0
        assert np.array_equal(weight_w0(p, x), np.exp(-p.M * x) * x ** p.alpha)


class TestMpDensity:
    @pytest.mark.parametrize("lam", [np.nan, [1.0, np.nan]])
    def test_nan_lam_is_refused(self, lam):
        # it read as outside the support: 0.0
        with pytest.raises(ConfigError, match="NaN"):
            mp_density(ModelParams(4, 16, 0.0), lam)

    def test_outside_support_is_zero(self):
        p = ModelParams(4, 16, 0.0)
        assert mp_density(p, 10.0) == 0.0
        b_minus, b_plus = mp_edges(p.gamma)
        assert mp_density(p, b_minus) == 0.0
        assert mp_density(p, b_plus) == 0.0

    @pytest.mark.parametrize("gamma", [1.0, 0.5, np.sqrt(4 / 8)])
    def test_unit_mass(self, gamma):
        # oracle: quadrature with the sqrt edges absorbed by lam = b- + (b+ - b-) sin^2
        b_minus, b_plus = mp_edges(gamma)
        theta, wt = np.polynomial.legendre.leggauss(400)
        theta = 0.25 * np.pi * (theta + 1.0)
        wt = wt * 0.25 * np.pi
        lam = b_minus + (b_plus - b_minus) * np.sin(theta) ** 2
        jac = (b_plus - b_minus) * 2.0 * np.sin(theta) * np.cos(theta)
        total = np.sum(wt * jac * mp_density(gamma, lam))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_gamma_one_value(self):
        # at the square aspect, rho(2) = sqrt(2 * 2) / (4 pi) = 1 / (2 pi)
        assert mp_density(1.0, 2.0) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)


class TestContour:
    def test_geometry(self):
        c = make_contour(1.0, node_count=8, margin=0.5)
        assert c.center == 0.5 and c.radius == 1.0
        phases = np.angle(c.nodes - c.center)
        expected = 2.0 * np.pi * (np.arange(8) + 0.5) / 8
        expected = np.mod(expected + np.pi, 2 * np.pi) - np.pi
        assert np.allclose(np.sort(phases), np.sort(expected))
        assert np.all(np.abs(c.nodes.imag) > 0)

    def test_residue_of_simple_pole(self):
        c = make_contour(1.0, node_count=64, margin=0.5)
        val = c.integrate(1.0 / (c.nodes - 0.3))
        assert abs(val - 2j * np.pi) < 1e-10

    def test_entire_integrand_vanishes(self):
        c = make_contour(1.0, node_count=16, margin=0.5)
        assert abs(c.integrate(c.nodes)) < 1e-12

    def test_polynomial_residues(self):
        # oint p(z)/(z - a) = 2 pi i p(a) for deg p < node_count / 2
        rng = np.random.default_rng(3)
        c = make_contour(2.0, node_count=64, margin=0.5)
        for _ in range(5):
            coef = rng.normal(size=12)
            a = rng.uniform(0.1, 1.9)
            val = c.integrate(np.polynomial.polynomial.polyval(c.nodes, coef)
                              / (c.nodes - a))
            exact = 2j * np.pi * np.polynomial.polynomial.polyval(a, coef)
            assert abs(val - exact) < 1e-10 * max(1.0, abs(exact))

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_contour(1.0, margin=0.0)
        with pytest.raises(ConfigError):
            make_contour(1.0, node_count=15)
        with pytest.raises(ConfigError):
            make_contour(-1.0)

    @pytest.mark.parametrize("z, margin", [(3.0, float("nan")), (3.0, float("inf")),
                                           (float("nan"), 0.5), (float("inf"), 0.5)])
    def test_non_finite_z_or_margin_is_refused(self, z, margin):
        with pytest.raises(ConfigError):
            make_contour(z, margin=margin)

    @pytest.mark.parametrize("args, kwargs", [
        ((True,), {"margin": True}), ((True,), {}), ((1.0,), {"margin": True}),
        ((2.0,), {"node_count": 10.0}), ((2.0,), {"node_count": True}),
        ((2.0,), {"node_count": "16"}), (("2.0",), {}), ((2.0,), {"node_count": 8.5})])
    def test_booleans_and_non_integer_node_counts_are_refused(self, args, kwargs):
        # make_contour(True, margin=True) would otherwise be the circle around
        # [0, 1], and node_count=10.0 a ContourSpec with a float node_count
        with pytest.raises(ConfigError):
            make_contour(*args, **kwargs)

    def test_numpy_integer_node_count_is_an_int(self):
        assert type(make_contour(np.float64(2.0), node_count=np.int64(16)).node_count) is int
