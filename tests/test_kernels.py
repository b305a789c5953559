import numpy as np
import pytest

from wishart_lab import (CdCorrectedKernel, KernelBundle, ModelParams,
                         build_basis, check_multi_orthogonality,
                         correction_matrix, weight_w)
from wishart_lab.quadrature import EpsilonTransform


@pytest.fixture(scope="module")
def p48():
    return ModelParams(4, 8, 1.0)


@pytest.fixture(scope="module")
def bundle(p48):
    return KernelBundle.build(p48, 2 + 1j)


class TestBruteForce:
    def test_trace_is_N_and_t_independent(self, p48):
        traces = []
        for t in (2 + 1j, 1 + 2j, 0.7 + 1.3j):
            kb = KernelBundle.build(p48, t)
            traces.append(kb.trace_s1())
        for tr in traces:
            assert tr == pytest.approx(p48.N, rel=1e-7)
        assert abs(traces[0] - traces[1]) < 1e-7 * abs(traces[0])

    def test_trace_at_contour_nodes(self, p48):
        # the hardest evaluation points: nodes skimming the positive real
        # axis, where the weight's branch point sits inside the x domain
        from wishart_lab import CdfEngine
        import numpy as np
        c = CdfEngine(p48).contour_for(6.0)
        theta = np.mod(np.angle(c.nodes - c.center), 2 * np.pi)
        for i in np.argsort(np.abs(theta))[:3]:
            kb = KernelBundle.build(p48, complex(c.nodes[i]))
            assert kb.trace_s1() == pytest.approx(p48.N, rel=1e-7)

    def test_tau_zero_matches_separate_loe_path(self):
        """Independently coded tau = 0 kernel (real weight, no t anywhere)."""
        p = ModelParams(4, 8, 0.0)
        kb = KernelBundle.build(p, 1.0)
        rule = kb.table.rule
        w_loe = np.exp(-0.5 * p.M * rule.x) * rule.x ** (0.5 * (p.M - p.N - 1))
        lag = kb.table.basis.eval_all(rule.x)[: p.N]
        phi = lag * w_loe
        eps = np.stack([EpsilonTransform(rule, phi[j]).at_nodes() for j in range(p.N)])
        raw = (phi * rule.w) @ eps.T
        m = 0.5 * (raw - raw.T)
        mu = np.linalg.inv(m)
        xs = np.linspace(0.5, 5.0, 4)
        phi_x = kb.table.basis.eval_all(xs)[: p.N] * np.exp(-0.5 * p.M * xs) * xs ** (0.5 * (p.M - p.N - 1))
        eps_x = np.stack([EpsilonTransform(rule, phi[j])(xs) for j in range(p.N)])
        s_loe = -phi_x.T @ mu @ eps_x
        s_pkg = kb.s1(xs, xs)
        assert np.max(np.abs(s_loe - s_pkg)) < 1e-10 * np.max(np.abs(s_loe))

    def test_basis_invariance(self, p48, bundle):
        """Rebuilding S1 from plain monomials must reproduce it exactly."""
        t = bundle.t
        rule = bundle.table.rule
        wv = bundle.table.wvals
        N = p48.N
        powers = np.stack([rule.x**j for j in range(N)])
        phi = powers * wv
        eps = [EpsilonTransform(rule, phi[j]) for j in range(N)]
        epsn = np.stack([e.at_nodes() for e in eps])
        raw = (phi * rule.w) @ epsn.T
        mu = np.linalg.inv(0.5 * (raw - raw.T))
        xs = np.linspace(0.4, 5.0, 5)
        ys = np.linspace(0.6, 4.0, 5)
        phi_x = np.stack([xs**j for j in range(N)]) * weight_w(p48, t, xs)
        eps_y = np.stack([e(ys) for e in eps])
        s_mono = -phi_x.T @ mu @ eps_y
        s_pkg = bundle.s1(xs, ys)
        assert np.max(np.abs(s_mono - s_pkg)) < 1e-8 * np.max(np.abs(s_pkg))

    def test_is1_antisymmetry(self, bundle):
        xs = np.linspace(0.5, 4.0, 4)
        m = bundle.is1(xs, xs)
        scale = np.max(np.abs(m))
        assert np.max(np.abs(m + m.T)) < 1e-14 * scale
        # diagonal vanishes by antisymmetry (roundoff-level in floating point)
        assert abs(bundle.is1(1.3, 1.3)) < 1e-14 * scale

    def test_ds1_matches_finite_differences(self, bundle):
        h = 1e-5
        for x, y in ((0.7, 1.9), (2.0, 0.5), (3.1, 3.0), (1.1, 4.2), (4.0, 1.0)):
            fd = -(bundle.s1(x, y + h) - bundle.s1(x, y - h)) / (2 * h)
            assert bundle.ds1(x, y) == pytest.approx(fd, rel=1e-6)

    def test_conjugation_symmetry(self, p48):
        ka = KernelBundle.build(p48, 1.4 + 0.9j)
        kb = KernelBundle.build(p48, 1.4 - 0.9j)
        xs = np.linspace(0.5, 4.0, 3)
        for f in ("s1", "is1", "ds1"):
            va = getattr(ka, f)(xs, xs)
            vb = getattr(kb, f)(xs, xs)
            assert np.allclose(vb, np.conj(va), rtol=1e-10)


class TestStackedPoints:
    KERNELS = ("s1", "is1", "ds1")

    def test_stack_matches_row_by_row(self, bundle):
        x = np.linspace(0.3, 7.0, 3 * 11).reshape(3, 11)
        y = np.linspace(0.5, 9.0, 3 * 7).reshape(3, 7)[::-1]
        for name in self.KERNELS:
            f = getattr(bundle, name)
            for a, b in ((x, y), (x, x)):
                stack = f(a, b)
                assert stack.shape == (3, a.shape[1], b.shape[1])
                for k in range(3):
                    row = f(a[k], b[k])
                    assert np.max(np.abs(stack[k] - row)) <= 1e-14 * np.max(np.abs(row))

    def test_scalar_and_1d_keep_the_plain_formula(self, p48, bundle):
        # bitwise: -(phi(x)^T mu) eps(y), -(eps(x)^T mu) eps(y), (phi(x)^T mu) phi(y)
        N = p48.N

        def phi(x):
            x = np.atleast_1d(x)
            return bundle.table.basis.eval_all(x)[:N] * weight_w(p48, bundle.t, x)

        def eps(x):
            return bundle.table.eps(np.atleast_1d(x))[:N]

        xs, ys = np.linspace(0.3, 7.0, 9), np.linspace(0.5, 9.0, 7)
        for x, y in ((xs, ys), (xs, xs), (1.3, ys), (1.3, 2.2)):
            expect = {"s1": -phi(x).T @ bundle.mu @ eps(y),
                      "is1": -eps(x).T @ bundle.mu @ eps(y),
                      "ds1": phi(x).T @ bundle.mu @ phi(y)}
            for name in self.KERNELS:
                got = getattr(bundle, name)(x, y)
                if np.ndim(x) == 0 and np.ndim(y) == 0:
                    assert isinstance(got, complex) and got == expect[name][0, 0]
                else:
                    assert np.array_equal(got, expect[name])


class TestCdCorrected:
    @pytest.mark.parametrize("tau,t", [(1.0, 2 + 1j), (0.3, 1 + 2j)])
    def test_pointwise_equality_with_brute_force(self, tau, t):
        # the central structure theorem, on a 5 x 5 grid
        p = ModelParams(4, 8, tau)
        kb = KernelBundle.build(p, t)
        cd = CdCorrectedKernel.build(p, t, table=kb.table)
        xs = np.linspace(0.4, 6.0, 5)
        ys = np.linspace(0.3, 5.5, 5)
        sb = kb.s1(xs, ys)
        sc = cd.s1(xs, ys)
        assert np.max(np.abs(sb - sc)) < 1e-6 * np.max(np.abs(sb))

    def test_correction_entry_00_is_exactly_zero(self, p48):
        A = correction_matrix(p48, 2 + 1j, build_basis(p48))
        assert A[0, 0] == 0.0

    def test_correction_offdiagonal_vanishes_with_tau(self):
        # the (0,1) and (1,0) entries carry an explicit M tau_tilde / 2 factor
        p = ModelParams(4, 8, 1e-12)
        A = correction_matrix(p, 2 + 1j, build_basis(p))
        scale = abs(A[1, 1])   # the Mt entry survives the limit
        assert abs(A[0, 1]) < 1e-11 * scale and abs(A[1, 0]) < 1e-11 * scale
        ratio = correction_matrix(ModelParams(4, 8, 1e-6), 2 + 1j,
                                  build_basis(p))[0, 1] / A[0, 1]
        tt_ratio = ModelParams(4, 8, 1e-6).tau_tilde / p.tau_tilde
        assert ratio == pytest.approx(tt_ratio, rel=1e-6)

    def test_correction_matrix_from_table(self, p48):
        cd = CdCorrectedKernel.build(p48, 2 + 1j)
        A_tab = cd.correction_matrix_from_table()
        assert np.max(np.abs(A_tab - cd.A)) < 1e-12 * np.max(np.abs(cd.A))

    def test_correction_is_rank_two(self, p48):
        cd = CdCorrectedKernel.build(p48, 2 + 1j)
        xs = np.linspace(0.4, 6.0, 8)
        corr = cd.correction(xs, xs)
        s = np.linalg.svd(corr, compute_uv=False)
        assert s[2] < 1e-12 * s[0]


class TestMultiOrthogonality:
    def test_residuals_and_moments(self, p48):
        rep = check_multi_orthogonality(p48, 2 + 1j)
        assert rep["max_residual"] < 1e-7 * rep["residual_scale"]
        target = -2j * np.pi * np.eye(2)
        assert np.max(np.abs(rep["moment_values"] - target)) < 1e-7

    def test_singular_iff_pivot_zero(self, p48):
        rep = check_multi_orthogonality(p48, 2 + 1j)
        # S2 = C J(pivot): determinant relation and the zeroed-pivot collapse
        det_pred = rep["cmat_det"] * rep["gram_pivot"] ** 2
        assert rep["reduced_det"] == pytest.approx(det_pred, rel=1e-10)
        assert rep["det_with_pivot_zeroed"] == 0.0
        assert abs(rep["reduced_det"]) > 0.0
