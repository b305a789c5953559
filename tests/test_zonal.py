import math

import numpy as np
import pytest

from wishart_lab import (ConfigError, McConfig, ModelParams, contour_S,
                         haar_orthogonal_integral, haar_series,
                         haar_unitary_integral, series_S, zonal_I_closed_form,
                         zonal_identity_check, zonal_row)


class TestZonalRow:
    def test_single_eigenvalue_powers(self):
        Z = zonal_row([0.7], 6, "real")
        assert isinstance(Z, np.ndarray) and Z.shape == (7,)
        assert Z == pytest.approx(0.7 ** np.arange(7), rel=1e-13)

    def test_first_coefficient_is_trace(self):
        assert zonal_row([0.2, 0.5, 0.9], 1, "real")[1] == pytest.approx(1.6)
        assert zonal_row([0.2, 0.5, 0.9], 1, "complex")[1] == pytest.approx(1.6)

    def test_identity_matrix_closed_form(self):
        for N in (2, 4, 6):
            Z = zonal_row(np.ones(N), 6, "real")
            for k in range(7):
                cf = zonal_I_closed_form(N, k)
                assert Z[k] == pytest.approx(cf, rel=1e-10)

    @pytest.mark.parametrize("family", ["complex", "quaternionic"])
    def test_unitary_and_symplectic_closed_forms(self, family):
        # C_(k)(I_N) = Gamma(N + k) / (Gamma(N) k!), Q_(k)(I_N) = Gamma(2N + k) / (Gamma(2N) (k + 1)!)
        for N in range(1, 7):
            row = zonal_row(np.ones(N), 10, family)
            for k in range(11):
                assert row[k] == pytest.approx(zonal_I_closed_form(N, k, family), rel=1e-13)

    def test_n2_k2_value(self):
        # Gamma(2)! route: Z_(2)(I_2) = 2! * 4 / (0! * 3) = 8/3
        assert zonal_row([1.0, 1.0], 2, "real")[2] == pytest.approx(8 / 3, rel=1e-13)

    def test_complex_family_is_complete_homogeneous(self):
        x = [0.3, 0.7]
        C = zonal_row(x, 3, "complex")
        h2 = x[0] ** 2 + x[0] * x[1] + x[1] ** 2
        assert C[2] == pytest.approx(h2, rel=1e-13)

    def test_guards(self):
        with pytest.raises(ConfigError):
            zonal_row([1.0], 61, "real")
        with pytest.raises(ConfigError):
            zonal_row([1.0], 5, "octonionic")

    def test_quaternionic_family_divides_by_k_plus_1(self):
        # (1 - u x)^(-2) = sum (k + 1) x^k u^k, so Q_(k)([x]) = x^k
        Q = zonal_row([0.6], 5, "quaternionic")
        for k in range(6):
            assert Q[k] == pytest.approx(0.6**k, rel=1e-13)


BAD_INPUTS = {
    "zonal_row nan eigenvalue": lambda: zonal_row([0.3, np.nan], 3),
    "zonal_row inf eigenvalue": lambda: zonal_row([np.inf], 3),
    "zonal_row scalar eigenvalues": lambda: zonal_row(0.3, 3),
    "zonal_row fractional max_k": lambda: zonal_row([0.3], 2.5),
    "zonal_row boolean max_k": lambda: zonal_row([0.3], True),
    "zonal_row negative max_k": lambda: zonal_row([0.3], -1),
    "series_S nan eigenvalue": lambda: series_S(2, 2, [0.1, np.nan], 0.5, 1),
    "series_S inf y": lambda: series_S(2, 2, [0.1, 0.2], np.inf, 1),
    "series_S nan y": lambda: series_S(2, 2, [0.1, 0.2], np.nan, 1),
    "series_S zero M": lambda: series_S(0, 2, [0.1, 0.2], 0.5, 1),
    "series_S zero N": lambda: series_S(2, 0, [], 0.5, 2),
    "series_S boolean N": lambda: series_S(2, True, [0.1], 0.5, 2),
    "series_S power 3": lambda: series_S(2, 2, [0.1, 0.2], 0.5, 3),
    "series_S fractional max_k": lambda: series_S(2, 2, [0.1, 0.2], 0.5, 1, max_k=10.5),
    "haar_series inf eigenvalue": lambda: haar_series(2, 3, [0.2, np.inf, 0.9], 0.3),
    "haar_series nan y": lambda: haar_series(2, 3, [0.2, 0.5, 0.9], np.nan),
    "haar_series inf M": lambda: haar_series(np.inf, 3, [0.2, 0.5, 0.9], 0.3),
    "haar_series zero N": lambda: haar_series(2, 0, [0.2, 0.5, 0.9], 0.3),
    "haar_series fractional N": lambda: haar_series(2, 2.5, [0.2, 0.5], 0.3),
    "contour_S nan eigenvalue": lambda: contour_S(2, [np.nan, 0.2], 0.5, 1),
    "contour_S inf y": lambda: contour_S(2, [0.1, 0.2], np.inf, 1),
    "contour_S nan M": lambda: contour_S(np.nan, [0.1, 0.2], 0.5, 1),
    "contour_S odd power * N": lambda: contour_S(2, [0.1, 0.2, 0.3], 0.5, 1),
    "identity check nan y": lambda: zonal_identity_check(2, [0.1, 0.2], np.nan),
    "unitary check inf eigenvalue": lambda: zonal_identity_check(1, [np.inf, 0.7], 0.4, "complex"),
    "identity check unknown family": lambda: zonal_identity_check(1, [0.3, 0.7], 0.4, "octonionic"),
    "haar_series unknown family": lambda: haar_series(1, 2, [0.3, 0.7], 0.4, family="octonionic"),
    "closed form unknown family": lambda: zonal_I_closed_form(2, 3, "octonionic"),
    "haar_series N below eigenvalue count": lambda: haar_series(2, 2, [0.2, 0.5, 0.9], 0.3),
    "series_S N below eigenvalue count": lambda: series_S(2, 2, [0.1, 0.2, 0.3, 0.4], 0.5, 1),
}


@pytest.mark.parametrize("call", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_refused(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("call", [lambda v: series_S(2, 2, [0.1, 0.2], v, 1),
                                  lambda v: series_S(v, 2, [0.1, 0.2], 0.5, 1),
                                  lambda v: series_S(2, v, [0.1, 0.2], 0.5, 2),
                                  lambda v: zonal_row([0.3], v)],
                         ids=["y", "M", "N", "max_k"])
def test_shared_checks_refuse_booleans_and_non_finite_values(call):
    for bad in (True, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            call(bad)
    assert np.array_equal(call(np.int64(2)), call(2))


class TestSeriesClosedForms:
    """series_S against closed forms that do not go through contour_S."""

    @pytest.mark.parametrize("M, a, y", [(2, 0.3, 0.5), (5, 0.8, -0.6), (1, 1.5, 1.0)])
    def test_real_two_equal_eigenvalues(self, M, a, y):
        # (1 - u a)^(-1/2) squared is (1 - u a)^(-1): S = sum (M a y)^k / k!
        assert series_S(M, 2, [a, a], y, 1) == pytest.approx(math.exp(M * a * y), rel=1e-13)

    @pytest.mark.parametrize("M, x, y", [(3, 0.5, 0.4), (1, 2.0, -0.7), (4, 0.25, 1.3)])
    def test_unitary_single_eigenvalue(self, M, x, y):
        assert series_S(M, 1, [x], y, 2) == pytest.approx(math.exp(M * x * y), rel=1e-13)

    @pytest.mark.parametrize("M, x, y", [(3, 0.5, 0.4), (1, 2.0, -0.7), (4, 0.25, 1.3)])
    def test_symplectic_single_eigenvalue(self, M, x, y):
        assert series_S(M, 1, [x], y, 4) == pytest.approx(M * math.exp(M * x * y), rel=1e-13)

    def test_padded_dimension_appends_zero_eigenvalues(self):
        # an N above the eigenvalue count pads X with zero eigenvalues
        x = [0.2, 0.5, 0.9]
        for family in ("real", "complex", "quaternionic"):
            assert haar_series(2, 4, x, 0.3, family=family) == pytest.approx(
                haar_series(2, 4, x + [0.0], 0.3, family=family), rel=1e-14)
        assert series_S(2, 4, x, 0.3, 1) == pytest.approx(series_S(2, 4, x + [0.0], 0.3, 1), rel=1e-14)


class TestSeriesVsContour:
    def test_real_case(self):
        rep = zonal_identity_check(2, [0.1, 0.2, 0.3, 0.4], 0.5, max_k=50)
        assert rep["rel_dev"] < 1e-8
        assert rep["series_tail"] < 1e-20
        assert rep["proportionality_dev"] < 1e-12

    def test_y_zero_reduces_to_k0_term(self):
        x = [0.1, 0.2, 0.3, 0.4]
        N, M = 4, 2
        ct = contour_S(M, x, 0.0, power=1)
        k0 = math.exp((N / 2 - 1) * math.log(M) - math.lgamma(N / 2))
        assert ct == pytest.approx(k0, rel=1e-10)

    def test_unitary_single_pole(self):
        # U(1): oint e^{Mt} (t - x y)^{-1} dt / (2 pi i) = e^{M x y}
        assert contour_S(3, [0.5], 0.4, power=2) == pytest.approx(
            np.exp(3 * 0.5 * 0.4), rel=1e-10)

    def test_symplectic_double_pole(self):
        # Sp, N = 1: residue of e^{Mt}/(t - x y)^2 is M e^{M x y}
        assert contour_S(3, [0.5], 0.4, power=4) == pytest.approx(
            3 * np.exp(3 * 0.5 * 0.4), rel=1e-10)

    def test_unitary_and_symplectic_series(self):
        for family in ("complex", "quaternionic"):
            assert zonal_identity_check(1, [0.3, 0.7], 0.4, family, max_k=50)["rel_dev"] < 1e-8

    @pytest.mark.parametrize("family", ["complex", "quaternionic"])
    def test_unitary_and_symplectic_proportionality(self, family):
        # S_p = M^(pN/2 - 1) / Gamma(pN/2) times the U(N) or Sp(N) group average
        for M, x, y in [(1, [0.3, 0.7], 0.4), (3, [0.2, 0.5, 0.9], 0.6), (2, [0.4], 1.1)]:
            rep = zonal_identity_check(M, x, y, family, max_k=50)
            assert rep["proportionality_dev"] < 1e-12
            assert rep["series_tail"] < 1e-20

    def test_odd_real_dimension_returns_only_the_haar_series(self):
        rep = zonal_identity_check(1, [0.2, 0.5, 0.9], 0.3)
        assert set(rep) == {"haar_series"}
        assert rep["haar_series"] == haar_series(1, 3, [0.2, 0.5, 0.9], 0.3)

    def test_odd_N_needs_no_contour(self):
        with pytest.raises(ConfigError):
            series_S(1, 3, [0.2, 0.5, 0.9], 0.3, power=1)


class TestMonteCarloThreeWay:
    def test_haar_orthogonal_vs_series(self):
        pdummy = ModelParams(2, 4, 0.0)
        mean, se = haar_orthogonal_integral(McConfig(5150, 200_000, pdummy),
                                            [0.2, 0.5, 0.9], -0.3, M=1)
        rep = zonal_identity_check(1, [0.2, 0.5, 0.9], 0.3, max_k=40,
                                   mc=(mean, se))
        assert rep["mc_sigmas"] < 3.0

    def test_haar_unitary_vs_series(self):
        pdummy = ModelParams(2, 4, 0.0)
        mcu = haar_unitary_integral(McConfig(5151, 100_000, pdummy),
                                    [0.3, 0.7], -0.4, M=1)
        rep = zonal_identity_check(1, [0.3, 0.7], 0.4, "complex", max_k=50, mc=mcu)
        assert rep["mc_sigmas"] < 3.0

    def test_haar_series_small_y_expansion(self):
        # at tiny y the series is 1 + M y tr(X)/N + O(y^2)
        x = [0.2, 0.5, 0.9]
        y = 1e-6
        val = haar_series(2, 3, x, y, max_k=10)
        assert val == pytest.approx(1.0 + 2 * y * sum(x) / 3, rel=1e-9)
