import re

import numpy as np
import pytest

from wishart_lab import (CdCorrectedKernel, CdfEngine, ConfigError, DegenerateSkewProductError, KernelBundle,
                         ModelParams, QuadratureError, build_basis, check_multi_orthogonality,
                         cd_kernel_k2, correction_matrix, weight_w)
from wishart_lab.quadrature import EpsilonTransform, HalfLineRule
from wishart_lab.skew import SkewProductTable, default_xmax, rule_for_t


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
        wv = weight_w(p48, t, rule.x)
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

    def test_a_non_finite_diagonal_sample_is_a_quadrature_error(self, p48, monkeypatch):
        # trace_s1 and resolvent_trace returned nan; on a stack the row is the t's
        ts = np.array([2 + 1j, 0.9 + 0.05j])
        stack = KernelBundle.build(p48, ts, rule=HalfLineRule.stack(
            default_xmax(p48), [rule_for_t(p48, complex(t)).u_edges for t in ts], 16))
        one = KernelBundle.build(p48, 2 + 1j)
        for kb, at, where, calls in ((one, 7, "node 7", ("trace_s1", "resolvent_trace")),
                                     (stack, (1, 7), "row 1, 0, node 7", ("trace_s1", "resolvent_trace"))):
            diag = kb.s1_diag_nodes()
            diag[at] = np.nan
            monkeypatch.setattr(kb, "s1_diag_nodes", lambda: diag)
            x = kb.table.rule.x[at]
            for name in calls:
                with pytest.raises(QuadratureError, match=re.escape(f"{where} (x={x:.6g})")):
                    getattr(kb, name)()

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


class TestStackedBundle:
    def test_table_holds_the_rows_the_kernels_read(self, p48, bundle):
        # kmax = N - 1: mu, the kernels and the resolvent trace read rows < N
        # only, so a bundle on a degree N + 1 table gives them to roundoff
        wide = KernelBundle.build(p48, 2 + 1j, table=SkewProductTable.build(p48, 2 + 1j, kmax=p48.N + 1))
        assert bundle.table.kmax == p48.N - 1 and wide.table.kmax == p48.N + 1
        xs = np.linspace(0.3, 7.0, 9)
        for name in ("s1", "is1", "ds1"):
            a, b = getattr(bundle, name)(xs, xs), getattr(wide, name)(xs, xs)
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
        r = wide.resolvent_trace()
        assert isinstance(bundle.resolvent_trace(), complex) and isinstance(bundle.cond, float)
        assert abs(bundle.resolvent_trace() - r) <= 1e-13 * abs(r)

    def test_stack_matches_one_bundle_per_t(self, p48):
        # a 1-D t on a stacked rule: each t's mu, cond, factors and resolvent
        # trace are those of a one-node bundle on that t's own rule
        ts = np.array([2 + 1j, 0.9 + 0.05j, -0.5 + 1.5j])
        rules = [rule_for_t(p48, complex(t)) for t in ts]
        assert len({r.n_panels for r in rules}) > 1
        stack = KernelBundle.build(p48, ts, rule=HalfLineRule.stack(
            default_xmax(p48), [r.u_edges for r in rules], 16))
        x = np.linspace(0.2, 9.0, 2 * 7).reshape(2, 7)
        trace = stack.resolvent_trace()
        assert stack.mu.shape == (3, p48.N, p48.N) and trace.shape == stack.cond.shape == (3,)
        for i, (t, r) in enumerate(zip(ts, rules)):
            one = KernelBundle.build(p48, complex(t), rule=r)
            assert np.max(np.abs(stack.mu[i] - one.mu)) <= 1e-13 * np.max(np.abs(one.mu))
            assert stack.cond[i] == pytest.approx(one.cond, rel=1e-10)
            assert abs(trace[i] - one.resolvent_trace()) <= 1e-13 * abs(one.resolvent_trace())
            for eps in (False, True):
                a, b = stack.factor(x, eps)[i], one.factor(x, eps)
                assert a.shape == (2, p48.N, 7) and np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    def test_trace_on_a_stack_is_n_at_every_t(self, p48):
        # one trace per t, as resolvent_trace gives; it raised a ConfigError about the shape of
        # samples its caller never passed
        ts = np.array([2 + 1j, 0.9 + 0.05j, -0.5 + 1.5j])
        stack = KernelBundle.build(p48, ts, rule=HalfLineRule.stack(
            default_xmax(p48), [rule_for_t(p48, complex(t)).u_edges for t in ts], 16))
        trace = stack.trace_s1()
        assert trace.shape == (3,) and np.allclose(trace, p48.N, rtol=1e-7, atol=0)
        for i, t in enumerate(ts):
            one = KernelBundle.build(p48, complex(t))
            assert abs(trace[i] - one.trace_s1()) <= 1e-13 * p48.N

    def test_s1_diagonal_is_the_kernel_at_the_rule_nodes(self, p48, bundle):
        # s1_diag_nodes reads the table's samples of L_j w and their transform;
        # checked on one bundle and on the padded row of a stack
        ts = np.array([0.9 + 0.05j, 2 + 1j, -0.5 + 1.5j])
        stack = KernelBundle.build(p48, ts, rule=HalfLineRule.stack(
            default_xmax(p48), [rule_for_t(p48, complex(t)).u_edges for t in ts], 16))
        x = bundle.table.rule.x
        assert stack.table.rule.n_nodes > x.size and np.array_equal(stack.table.rule.x[1, :x.size], x)
        expect = np.diag(bundle.s1(x, x))
        for got in (bundle.s1_diag_nodes(), stack.s1_diag_nodes()[1, :x.size]):
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_degenerate_stack_names_its_first_singular_t(self):
        # every upper contour node of (16, 64, 1) has a singular moment matrix:
        # the Fredholm set-up names node 0, the lowest-index one
        eng = CdfEngine(ModelParams(16, 64, 1.0))
        t0 = complex(eng.contour.nodes[0])
        assert t0 == pytest.approx(0.8748317527 + 0.0152089349j, abs=1e-9)
        with pytest.raises(DegenerateSkewProductError, match=re.escape(f"t={t0} ")):
            eng.cdf(eng.z_inf, "fredholm")


    def test_a_1d_t_without_a_stacked_rule_is_a_config_error(self, p48):
        # the default rule adapts to one t; it was a raw ValueError from comparing an array
        with pytest.raises(ConfigError, match="stacked rule"):
            KernelBundle.build(p48, np.array([2 + 1j, 1 + 1j]))


class TestBadPoints:
    """A point where w is undefined (0, -1, NaN, inf) is a ConfigError wherever L_j w is
    sampled there; eps(L_j w) clips its points to [0, xmax] and refuses NaN alone."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_sampling_w_at_a_bad_point_is_a_config_error(self, p48, bundle, bad):
        cd = CdCorrectedKernel.build(p48, 2 + 1j)
        calls = [lambda: bundle.s1(bad, 1.0), lambda: bundle.ds1(bad, 1.0), lambda: bundle.ds1(1.0, bad),
                 lambda: cd.s1(bad, 1.0), lambda: cd.s1(1.0, bad),
                 lambda: cd_kernel_k2(bundle.table.basis, 2 + 1j, bad, 1.0)]
        for call in calls:
            with pytest.raises(ConfigError, match="finite x > 0"):
                call()

    def test_eps_points_are_clipped_and_nan_refused(self, bundle):
        xmax = bundle.table.rule.xmax
        assert bundle.is1(-1.0, 1.0) == bundle.is1(0.0, 1.0) and bundle.s1(1.0, -1.0) == bundle.s1(1.0, 0.0)
        assert bundle.is1(np.inf, 1.0) == bundle.is1(xmax, 1.0) and bundle.s1(1.0, np.inf) == bundle.s1(1.0, xmax)
        assert np.isfinite(bundle.is1(0.0, 1.0))
        for call in (lambda: bundle.is1(np.nan, 1.0), lambda: bundle.is1(1.0, np.nan),
                     lambda: bundle.s1(1.0, np.nan)):
            with pytest.raises(ConfigError, match="NaN"):      # is1(nan, 1) was nan+nanj, no warning
                call()

    def test_a_table_below_degree_n_minus_1_is_refused(self, p48):
        # a 2 x 2 mu at N = 4 ended in a raw reshape ValueError in s1
        with pytest.raises(ConfigError, match="need 3"):
            KernelBundle.build(p48, 2 + 1j, table=SkewProductTable.build(p48, 2 + 1j, kmax=1))


class TestCdCorrected:
    @pytest.mark.parametrize("tau,t", [(1.0, 2 + 1j), (0.3, 1 + 2j)])
    def test_pointwise_equality_with_brute_force(self, tau, t):
        # the central structure theorem, on a 5 x 5 grid
        p = ModelParams(4, 8, tau)
        table = SkewProductTable.build(p, t)         # degree N + 1, which the correction reads
        kb, cd = KernelBundle.build(p, t, table=table), CdCorrectedKernel.build(p, t, table=table)
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

    @pytest.mark.parametrize("tau", [0.3, 1.0])
    @pytest.mark.parametrize("t", [2 + 1j, 1 + 2j, 0.8 + 0.9j])
    def test_correction_reads_the_tables_eps_by_linearity(self, tau, t):
        # the oracle is a construction of its own: pi_{N+1,1} w and pi_{N,1} w sampled
        # on the table's rule and given their own epsilon transform
        p = ModelParams(4, 8, tau)
        cd = CdCorrectedKernel.build(p, t)
        rule, N = cd.table.rule, p.N
        lag = cd.table.basis.eval_all(rule.x)
        pi_w = np.stack([cd.polys.coeffs[d] @ lag[:d + 1] for d in (N + 1, N)]) * weight_w(p, t, rule.x)
        eps_pi = EpsilonTransform(rule, pi_w)
        xs, ys = np.linspace(0.4, 6.0, 5), np.linspace(0.3, 5.5, 5)
        row = eps_pi(ys)
        assert np.max(np.abs(cd.hi @ cd.table.eps(ys) - row)) <= 1e-13 * np.max(np.abs(row))
        want = (cd.table.basis.eval_all(xs)[N - 2:N] * weight_w(p, t, xs)).T @ cd.A.T @ row
        assert np.max(np.abs(cd.correction(xs, ys) - want)) <= 1e-13 * np.max(np.abs(want))

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
        # S2 = C J(pivot): the determinant factors through the pivot
        det_pred = rep["cmat_det"] * rep["gram_pivot"] ** 2
        assert rep["reduced_det"] == pytest.approx(det_pred, rel=1e-10)
        assert abs(rep["reduced_det"]) > 0.0
