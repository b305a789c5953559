import math
from fractions import Fraction

import numpy as np
import pytest

from wishart_lab import (ConfigError, ModelParams, build_basis, cd_kernel_k2,
                         half_line_rule, weight_w0)
from wishart_lab.quadrature import finite_rule


@pytest.fixture(scope="module")
def p48():
    return ModelParams(4, 8, 1.0)


@pytest.fixture(scope="module")
def basis(p48):
    return build_basis(p48, 8)


def rodrigues_coeffs(n, M, alpha):
    """Independent oracle: expand the n-th derivative in the Rodrigues form
    with exact rational arithmetic (Leibniz on e^{-M x} x^{n + alpha})."""
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        # binom(n, k) * (-M)^{n-k} * (n+alpha)(n+alpha-1)...(n+alpha-k+1) x^{n+alpha-k}
        fall = Fraction(1)
        for j in range(k):
            fall *= n + alpha - j
        term = Fraction(math.comb(n, k)) * Fraction(-M) ** (n - k) * fall
        # overall prefactor (-1)^n / M^n and the x^{-alpha} shift
        coeffs[n - k] += term * Fraction((-1) ** n, M**n)
    return np.array([float(c) for c in coeffs])


class TestRecurrence:
    def test_lower_degrees_do_not_depend_on_how_many_are_evaluated(self, basis):
        x = np.linspace(0.05, 6.0, 37)
        full = basis.eval_all(x)
        for upto in range(basis.max_degree + 1):
            assert np.array_equal(basis.eval_all(x, upto), full[:upto + 1])
        with pytest.raises(ConfigError, match="out of range"):
            basis.eval_all(x, basis.max_degree + 1)

    def test_l0_l1(self, basis, p48):
        assert basis.eval_all(123.4, 0)[0] == 1.0
        root = (p48.M - p48.N + 1) / p48.M
        assert basis.eval_all(root, 1)[1] == pytest.approx(0.0, abs=1e-15)

    def test_subleading_coefficient(self, basis, p48):
        # L_n = x^n - (M-N+n) n / M x^{n-1} + ...
        for n in range(1, 8):
            c = basis.coeffs(n)
            assert c[n] == pytest.approx(1.0)
            assert c[n - 1] == pytest.approx(-(p48.M - p48.N + n) * n / p48.M, rel=1e-12)

    @pytest.mark.parametrize("n", range(9))
    def test_rodrigues_oracle(self, basis, p48, n):
        oracle = rodrigues_coeffs(n, p48.M, p48.alpha)
        assert np.allclose(basis.coeffs(n), oracle, rtol=1e-9)

    def test_value_vs_rodrigues_at_point(self, basis):
        oracle = rodrigues_coeffs(6, 8, 4)
        val = np.polynomial.polynomial.polyval(2.0, oracle)
        assert basis.eval_all(2.0, 6)[6] == pytest.approx(val, rel=1e-9)

    def test_stieltjes_rederivation(self, p48):
        """Re-derive a_n, b_n from quadrature moments of w0 before trusting
        the closed form (a_n = (2n + M - N + 1)/M, b_n = n (n + M - N)/M^2)."""
        rule = half_line_rule(30.0, n_panels=32, q=20)
        w0 = weight_w0(p48, rule.x)
        p_prev = np.zeros(rule.n_nodes)
        p_cur = np.ones(rule.n_nodes)
        h_prev = None
        basis = build_basis(p48, 8)
        for n in range(7):
            h = np.sum(rule.w * w0 * p_cur**2)
            a = np.sum(rule.w * w0 * rule.x * p_cur**2) / h
            assert a == pytest.approx(basis.a[n], rel=1e-12)
            if n > 0:
                b = h / h_prev
                assert b == pytest.approx(basis.b[n], rel=1e-12)
            p_next = (rule.x - a) * p_cur - (0.0 if n == 0 else h / h_prev) * p_prev
            p_prev, p_cur, h_prev = p_cur, p_next, h
        # norms match the closed form too
        assert basis.h(0) == pytest.approx(24 / 8**5, rel=1e-13)

    def test_norms_by_quadrature(self, basis, p48):
        rule = half_line_rule(30.0, n_panels=32, q=20)
        w0 = weight_w0(p48, rule.x)
        L = basis.eval_all(rule.x)
        for n in range(8):
            h = np.sum(rule.w * w0 * L[n] ** 2)
            assert h == pytest.approx(basis.h(n), rel=1e-11)
        # orthogonality <L_3, L_5>_2 = 0
        cross = np.sum(rule.w * w0 * L[3] * L[5])
        assert abs(cross) < 1e-10 * basis.h(4)

    def test_norm_positivity_and_ratio(self, basis):
        for n in range(1, basis.max_degree + 1):
            assert basis.h(n) > 0
            assert basis.h(n) / basis.h(n - 1) == pytest.approx(basis.b[n], rel=1e-12)

    def test_degree_guards(self, basis):
        with pytest.raises(ConfigError):
            basis.eval_all(1.0, 99)[99]
        with pytest.raises(ConfigError):
            build_basis(ModelParams(4, 8, 1.0), 3)

    @pytest.mark.parametrize("degree", [8.0, "8", True])
    def test_degree_is_checked_before_the_cache(self, p48, basis, degree):
        # 8.0 and True hash like 8 and 1: refused, not served a cached basis
        assert build_basis(p48, np.int64(8)) is basis
        with pytest.raises(ConfigError, match="max_degree must be"):
            build_basis(p48, degree)

    def test_arrays_are_read_only(self, basis):
        for a in (basis.a, basis.b, basis.log_h):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestCdKernelK2:
    def test_diagonal_limit_tau_zero(self):
        p = ModelParams(4, 8, 0.0)
        basis = build_basis(p)
        x = 1.3
        L, D = basis.eval_all_with_derivative(np.array([x]))
        wron = (D[4] * L[3] - L[4] * D[3])[0]
        expected = wron * weight_w0(p, x) / basis.h(3)
        assert cd_kernel_k2(basis, 1.0, x, x) == pytest.approx(expected, rel=1e-12)

    def test_numerator_antisymmetry(self, basis):
        x, y = 1.7, 0.6
        L = basis.eval_all(np.array([x, y]))
        num_xy = L[4, 0] * L[3, 1] - L[4, 1] * L[3, 0]
        num_yx = L[4, 1] * L[3, 0] - L[4, 0] * L[3, 1]
        assert num_xy == -num_yx

    def test_trace_is_N_at_tau_zero(self):
        p = ModelParams(4, 8, 0.0)
        basis = build_basis(p)
        rule = half_line_rule(30.0, n_panels=32, q=20)
        diag = cd_kernel_k2(basis, 1.0, rule.x, rule.x)
        assert np.sum(rule.w * diag.real) == pytest.approx(p.N, abs=1e-8)
        # oracle: the CD sum equals sum_{j<N} L_j^2 w0 / h_j pointwise
        L = basis.eval_all(rule.x)
        direct = sum(L[j] ** 2 / basis.h(j) for j in range(p.N)) * weight_w0(p, rule.x)
        assert np.max(np.abs(diag - direct)) < 1e-10 * np.max(np.abs(direct))

    def test_reproducing_property_tau_zero(self):
        p = ModelParams(4, 8, 0.0)
        basis = build_basis(p)
        xs, ws = finite_rule(1e-8, 25.0, n_panels=24, q=16)
        x, y = 1.1, 2.3
        left = cd_kernel_k2(basis, 1.0, x, xs)
        right = cd_kernel_k2(basis, 1.0, xs, y)
        conv = np.sum(ws * left * right)
        assert conv == pytest.approx(cd_kernel_k2(basis, 1.0, x, y), rel=1e-7)

    def test_off_axis_branch(self, basis):
        v = cd_kernel_k2(basis, 2 + 1j, 1.0, 1.0000001)
        assert np.isfinite(v) and abs(v.imag) > 0
