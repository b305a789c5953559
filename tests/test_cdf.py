import numpy as np
import pytest

from wishart_lab import (CdfEngine, EpsilonTransform, KernelBundle,
                         ModelParams, build_basis, fredholm_det, fredholm_det_exact,
                         half_line_rule, loe_direct_cdf, logdet_m_derivative, pfaffian,
                         truncated_moment_matrix, weight_w)
from wishart_lab import DegenerateSkewProductError, PrecisionLossError
from wishart_lab import cdf as cdf_module
from wishart_lab.skew import SkewProductTable, default_xmax


@pytest.fixture(scope="module")
def p48():
    return ModelParams(4, 8, 1.0)


@pytest.fixture(scope="module")
def engine(p48):
    return CdfEngine(p48)


@pytest.fixture(scope="module")
def bundle(p48):
    return KernelBundle.build(p48, 2 + 1j)


class TestFredholmDet:
    def test_empty_domain(self, bundle):
        xmax = bundle.table.rule.xmax
        assert fredholm_det(bundle, xmax + 1.0) == 1.0
        assert fredholm_det_exact(bundle, xmax + 1.0) == 1.0
        mixed = fredholm_det(bundle, [3.0, xmax, 2.0, xmax + 4.0])
        assert mixed[1] == 1.0 and mixed[3] == 1.0
        assert mixed[0] == fredholm_det(bundle, 3.0) and mixed[2] == fredholm_det(bundle, 2.0)

    @pytest.mark.parametrize("z", [2.0, 3.5, 6.0])
    def test_nystrom_matches_rank_reduction(self, bundle, z):
        d_ny = fredholm_det(bundle, z, 80)
        d_ex = fredholm_det_exact(bundle, z)
        assert d_ny == pytest.approx(d_ex, rel=1e-12)

    def test_n_refinement(self, bundle):
        # self-convergence: each doubling shrinks the change by >= 4x until
        # the roundoff floor
        z = 3.0
        d = [fredholm_det(bundle, z, n) for n in (20, 40, 80)]
        e1 = abs(d[1] - d[0])
        e2 = abs(d[2] - d[1])
        assert e2 < max(e1 / 4.0, 1e-14)

    def test_stack_matches_scalar_calls_and_dense_assembly(self, bundle):
        # the dense 2n x 2n Nystrom matrix assembled from 1-D kernel calls
        zs = [2.0, 3.5, 6.0]
        stack = fredholm_det(bundle, zs, 80)
        assert stack.shape == (3,)
        for z, d in zip(zs, stack):
            assert d == pytest.approx(fredholm_det(bundle, z, 80), rel=1e-14, abs=0)
            grid = half_line_rule(bundle.table.rule.xmax, 4, 20, x0=z)
            x, w, n = grid.x, grid.w, grid.n_nodes
            eps_op = 0.5 * (2.0 * grid.cumulative_matrix() - np.ones((n, 1)) * w[None, :])
            S = bundle.s1(x, x)
            K = np.block([[S * w, bundle.ds1(x, x) * w],
                          [bundle.is1(x, x) * w - eps_op, S.T * w]])
            assert d == pytest.approx(np.linalg.det(np.eye(2 * n) - K), rel=1e-12, abs=0)

    def test_blocks_bound_the_stack(self, bundle, monkeypatch):
        # a budget of two 160 x 160 complex matrices splits five z into 2 + 2 + 1
        zs = np.linspace(1.0, 7.0, 5)
        whole = fredholm_det(bundle, zs)
        budget = 2 * 16 * 160 ** 2
        stacks, det = [], np.linalg.det

        def spy(a):
            stacks.append(a.nbytes)
            return det(a)

        monkeypatch.setattr(cdf_module, "_DET_BLOCK_BYTES", budget)
        monkeypatch.setattr(np.linalg, "det", spy)
        blocked = fredholm_det(bundle, zs)
        assert stacks == [budget, budget, budget // 2]
        assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))

    def test_nystrom_data_is_read_only(self, bundle):
        for a in cdf_module._nystrom_data(bundle.table.rule.xmax, 2.5, 4):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_factorisation_against_pfaffian(self, p48, bundle):
        # Pf(Mtrunc)^2 = det M * det(I - K chi): the de Bruijn / Fredholm bridge
        z = 3.5
        m_full = bundle.table.entries[: p48.N, : p48.N]
        pf_trunc = pfaffian(truncated_moment_matrix(p48, bundle.t, z))
        lhs = np.linalg.det(m_full) * fredholm_det(bundle, z, 80)
        assert lhs == pytest.approx(pf_trunc**2, rel=1e-10)


class TestLogDetDerivative:
    def test_against_finite_differences(self, p48):
        t = 2 + 1j

        def detM(tv):
            tab = SkewProductTable.build(p48, tv)
            return np.linalg.det(tab.entries[: p48.N, : p48.N])

        h = 1e-4 * abs(t)
        fd = (detM(t + h) - detM(t - h)) / (2 * h * detM(t))
        assert logdet_m_derivative(p48, t) == pytest.approx(fd, rel=1e-5)

    def test_tau_zero_power_law(self):
        # w carries a global t^{-1/2}, so log det M = -N log t + const
        p = ModelParams(4, 8, 0.0)
        t = 1.3 + 0.4j
        assert logdet_m_derivative(p, t) == pytest.approx(-p.N / t, rel=1e-12)

    def test_conjugation(self, p48):
        a = logdet_m_derivative(p48, 2 + 1j)
        b = logdet_m_derivative(p48, 2 - 1j)
        assert b == pytest.approx(np.conj(a), rel=1e-12)


class TestPfaffianRoute:
    def test_zero_at_origin(self, engine):
        assert engine.cdf_pfaffian(0.0).value == 0.0
        assert engine.cdf_pfaffian(-1.0).value == 0.0

    def test_anchor_self_consistency(self, p48, engine):
        # the normalisation fixed at z_inf must hold at a second, larger anchor
        r = engine.cdf_pfaffian(1.3 * engine.z_inf)
        assert r.value == pytest.approx(1.0, abs=1e-4)

    def test_im_residual_small(self, engine):
        for z in (2.0, 4.0, 8.0):
            r = engine.cdf_pfaffian(z)
            assert abs(r.diagnostics["im_residual"]) < 1e-6

    def test_monotone_and_bounded(self, engine):
        zs = np.linspace(0.4, 12.0, 20)
        vals = [engine.cdf_pfaffian(float(z)).value for z in zs]
        assert all(v2 >= v1 - 1e-6 for v1, v2 in zip(vals, vals[1:]))
        assert min(vals) > -1e-6 and max(vals) < 1.0 + 1e-6

    def test_loe_underflow_raises(self):
        # at (20, 80, 0) both Pfaffians underflow to zero: refused, not 0/0
        with pytest.raises(FloatingPointError):
            loe_direct_cdf(ModelParams(20, 80, 0.0), 2.0)

    def test_loe_reduction(self):
        # tau = 0: the t-integral collapses; the contour route must equal the
        # direct no-contour Pfaffian path
        p = ModelParams(4, 8, 0.0)
        eng = CdfEngine(p)
        for z in (1.5, 2.5, 3.5):
            assert eng.cdf_pfaffian(z).value == pytest.approx(
                loe_direct_cdf(p, z), abs=1e-6)

    def test_contour_invariance(self, p48, engine):
        wide = CdfEngine(p48, radius_factor=2.0)
        for z in (2.5, 3.5):
            assert wide.cdf_pfaffian(z).value == pytest.approx(
                engine.cdf_pfaffian(z).value, abs=1e-6)

    def test_determinism(self, p48):
        a = CdfEngine(p48).cdf_pfaffian(3.0).value
        b = CdfEngine(p48).cdf_pfaffian(3.0).value
        assert a == b

    def test_n2_reference_values(self):
        """Frozen regression values, validated against 1e5-sample MC during
        development (each within 3 binomial SE)."""
        p = ModelParams(2, 4, 1.0)
        eng = CdfEngine(p)
        expected = {2.0: 0.44545056, 2.75: 0.66365158, 3.5: 0.80812898,
                    4.25: 0.89431332, 5.0: 0.94306067}
        for z, v in expected.items():
            assert eng.cdf_pfaffian(z).value == pytest.approx(v, abs=2e-6)


class TestFredholmRoute:
    def test_route_agreement(self, engine):
        for z in (2.5, 4.5):
            a = engine.cdf_pfaffian(z).value
            b = engine.cdf_fredholm(z).value
            assert abs(a - b) < 1e-3

    def test_zero_at_origin(self, engine):
        assert engine.cdf_fredholm(0.0).value == 0.0

    def test_degenerate_node_raises_without_retry(self, p48, monkeypatch):
        calls = []

        def degenerate(cls, *args, **kw):
            calls.append(args)
            raise DegenerateSkewProductError("singular moment matrix")

        monkeypatch.setattr(KernelBundle, "build", classmethod(degenerate))
        with pytest.raises(DegenerateSkewProductError):
            CdfEngine(p48).cdf_grid([2.0], "fredholm")
        assert len(calls) == 1

    def test_c0_invariance(self, engine):
        a = engine.cdf_fredholm(3.5, c0_shift=0).value
        b = engine.cdf_fredholm(3.5, c0_shift=7).value
        assert abs(a - b) < 1e-6

    def test_nystrom_doubling(self, p48, engine):
        fine = CdfEngine(p48, n_nystrom=160)
        assert abs(fine.cdf_fredholm(3.5).value
                   - engine.cdf_fredholm(3.5).value) < 1e-4


class TestTruncatedMomentMatrix:
    T = 2 + 1j
    ZS = [1.5, 3.0, 5.0]

    def test_stack_matches_per_z_calls(self, p48):
        stack = truncated_moment_matrix(p48, self.T, self.ZS)
        assert stack.shape == (len(self.ZS), p48.N, p48.N)
        for z, m in zip(self.ZS, stack):
            one = truncated_moment_matrix(p48, self.T, z)
            assert np.max(np.abs(one - m)) <= 1e-12 * np.max(np.abs(m))

    def test_against_independent_rule_on_0_z(self, p48):
        # the parent construction: a separate rule on [0, z] and the
        # epsilon transform over it, int phi_a eps(phi_b), antisymmetrised
        stack = truncated_moment_matrix(p48, self.T, self.ZS)
        for z, m in zip(self.ZS, stack):
            rule = half_line_rule(z, n_panels=32, q=16)
            phi = build_basis(p48).eval_all(rule.x)[: p48.N] * weight_w(p48, self.T, rule.x)
            raw = (phi * rule.w) @ EpsilonTransform(rule, phi).at_nodes().T
            assert np.max(np.abs(0.5 * (raw - raw.T) - m)) <= 1e-12 * np.max(np.abs(m))

    def test_past_xmax_is_the_full_gram(self, p48):
        full = SkewProductTable.build(p48, self.T, kmax=p48.N - 1).entries
        xmax = default_xmax(p48)
        for m in truncated_moment_matrix(p48, self.T, [xmax, xmax + 5.0]):
            assert np.max(np.abs(m - full)) <= 1e-14 * np.max(np.abs(full))


class TestCdfGrid:
    ZS = [2.0, 4.0]

    @pytest.mark.parametrize("route", ["pfaffian", "fredholm"])
    def test_grid_matches_points_in_any_order(self, engine, route):
        grid = [r.value for r in engine.cdf_grid(self.ZS, route)]
        back = [r.value for r in engine.cdf_grid(self.ZS[::-1], route)][::-1]
        assert back == grid
        for z, g in zip(self.ZS, grid):
            assert abs(engine.cdf(z, route).value - g) < 1e-7

    def test_mixed_and_empty_grids(self, engine):
        res = engine.cdf_grid([-1.0, 2.0, 0.0, 4.0])
        assert [r.z for r in res] == [-1.0, 2.0, 0.0, 4.0]
        assert res[0].value == 0.0 and res[2].value == 0.0
        assert [res[1].value, res[3].value] == [r.value for r in engine.cdf_grid(self.ZS)]
        assert all(r.diagnostics["node_count"] == engine.contour.node_count for r in res)
        assert engine.cdf_grid([]) == []

    def test_anchor_computed_once(self, p48, monkeypatch):
        calls = []

        def spy(params, t, z, **kw):
            calls.append(len(z))
            return truncated_moment_matrix(params, t, z, **kw)

        monkeypatch.setattr(cdf_module, "truncated_moment_matrix", spy)
        eng = CdfEngine(p48)
        eng.cdf_grid(self.ZS)
        anchor = eng._anchors[("pfaffian", 0)]
        assert calls == [len(self.ZS) + 1] * eng.contour.node_count
        calls.clear()
        eng.cdf_grid(self.ZS)
        assert calls == [len(self.ZS)] * eng.contour.node_count
        assert eng._anchors[("pfaffian", 0)] == anchor

    def test_bundle_cache_holds_contour_nodes_only(self, engine):
        engine.cdf_grid(self.ZS, "fredholm")
        assert len(engine._bundles) == engine.contour.node_count

    def test_cancellation_digits(self, p48, engine):
        c = engine.contour
        pf = np.array([pfaffian(truncated_moment_matrix(p48, t, 2.0)) for t in c.nodes])
        terms = c.weights * np.exp(p48.M * c.nodes) * pf
        expect = np.log10(np.sum(np.abs(terms)) / abs(np.sum(terms)))
        got = engine.cdf(2.0).diagnostics["cancellation_digits"]
        assert got == pytest.approx(expect, rel=1e-6)


class TestPrecisionGuard:
    @pytest.mark.parametrize("params,route", [((8, 32, 2.0), "pfaffian"),
                                              ((4, 16, 2.0), "fredholm")])
    def test_cancelled_values_are_refused(self, params, route):
        # about 15 digits lost: the values come out as -0.25 and 0.75 at z = 2
        with pytest.raises(PrecisionLossError):
            CdfEngine(ModelParams(*params)).cdf_grid([2.0, 3.0], route)
