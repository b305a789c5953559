import functools
import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest

from wishart_lab import (KAPPA_EPSILON, CdfEngine, EpsilonTransform, KernelBundle,
                         ModelParams, build_basis, fredholm_det, half_line_rule,
                         loe_direct_cdf, logdet_m_derivative, pfaffian,
                         truncated_moment_matrix, weight_w)
from wishart_lab import (ConfigError, DegenerateSkewProductError, PrecisionLossError,
                         SingularWeightError)
from wishart_lab import cdf as cdf_module, quadrature, skew as skew_module
from wishart_lab.quadrature import HalfLineRule
from wishart_lab.skew import SkewProductTable, default_xmax, rule_for_t


def fresh_panel_cache(monkeypatch):
    """An empty reference-panel cache for the rest of the test; the process's one comes back after."""
    build = functools.cache(quadrature._reference_panel.__wrapped__)
    monkeypatch.setattr(quadrature, "_reference_panel", build)


@pytest.fixture(scope="module")
def p48():
    return ModelParams(4, 8, 1.0)


@pytest.fixture(scope="module")
def engine(p48):
    return CdfEngine(p48)


@pytest.fixture(scope="module")
def bundle(p48):
    return KernelBundle.build(p48, 2 + 1j)


def dense_nystrom_det(bundle, z, n_panels=4):
    """det(I - K) of the 2n x 2n Nystrom matrix assembled from s1, is1 and ds1."""
    grid = half_line_rule(bundle.table.rule.xmax - z, n_panels, 20)    # [z, xmax] as a shift
    x, w, n = z + grid.x, grid.w, grid.n_nodes
    eps_op = 0.5 * (2.0 * grid.cumulative(np.eye(n)).T - np.ones((n, 1)) * w[None, :])
    S = bundle.s1(x, x)
    K = np.block([[S * w, bundle.ds1(x, x) * w],
                  [bundle.is1(x, x) * w - eps_op, S.T * w]])
    return np.linalg.det(np.eye(2 * n) - K)


def fredholm_det_exact(bundle, z):
    """Rank-reduced oracle: det(I - K chi) = det(I_N - mu B(z)).

    B_jk = <phi_j | eps chi | phi_k> + <phi_j | chi eps chi~ | phi_k> with
    phi_j = L_j w, chi the indicator of [z, inf) and chi~ = 1 - chi; both
    terms reduce to one-dimensional integrals of cumulative tables.  This is
    the finite-rank content of the Fredholm determinant, independent of the
    Nystrom discretisation.
    """
    rule = bundle.table.rule
    if z >= rule.xmax:
        return 1.0 + 0j
    N = bundle.params.N
    phi = bundle.table.eps.fvals[:N]
    F_z = rule.cum_at(phi, z)
    totals = phi @ rule.w
    tails = totals - F_z

    sub = half_line_rule(rule.xmax - z, n_panels=16, q=16)             # [z, xmax] as a shift
    x_s = z + sub.x
    lag_s = bundle.table.basis.eval_all(x_s)[:N]
    phi_s = lag_s * weight_w(bundle.params, bundle.t, x_s)
    F_s = rule.cum_at(phi, x_s)

    k_eps = KAPPA_EPSILON
    tail_int = phi_s @ sub.w                                  # int_z phi_j
    cross = phi_s @ (sub.w[:, None] * F_s.T)                  # int_z phi_j F_k
    B = (-k_eps * np.outer(F_z, tails)
         + k_eps * (2.0 * cross - 2.0 * np.outer(tail_int, F_z) - np.outer(tail_int, tails))
         + k_eps * np.outer(tail_int, F_z))
    return complex(np.linalg.det(np.eye(N) - bundle.mu @ B))


def slogdet_with_one_node_at_minus_inf(a, slogdet=np.linalg.slogdet):
    """np.linalg.slogdet with log|det| = -inf at node 5 of a stacked call."""
    sign, logabs = slogdet(a)
    if a.ndim == 3:
        logabs = np.where(np.arange(len(logabs)) == 5, -np.inf, logabs)
    return sign, logabs


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
        d = [fredholm_det(bundle, z, n) for n in (40, 80, 160)]
        e1 = abs(d[1] - d[0])
        e2 = abs(d[2] - d[1])
        assert e2 < max(e1 / 4.0, 1e-14)

    @pytest.mark.parametrize("n", [20, 90, 0, -20])
    def test_node_count_off_the_panel_grid_raises(self, p48, bundle, n):
        # the rule is whole 20-node panels, at least two: n is never rounded
        with pytest.raises(ConfigError, match="n_nystrom"):
            fredholm_det(bundle, 3.0, n)
        with pytest.raises(ConfigError, match="n_nystrom"):
            CdfEngine(p48, n_nystrom=n)

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), True, "2"])
    def test_z_must_be_a_finite_real(self, bundle, z):
        # NaN used to give 1, and True, "2" the values at z = 1 and z = 2
        with pytest.raises(ConfigError, match="z must be a finite real"):
            fredholm_det(bundle, z)
        with pytest.raises(ConfigError, match="z must be a finite real"):
            fredholm_det(bundle, [2.0, z])

    def test_negative_z_is_the_z_zero_value(self, bundle):
        # K lives on [0, xmax]: [z, xmax] for z < 0 is all of it
        at_zero = fredholm_det(bundle, 0.0)
        assert fredholm_det(bundle, -1.0) == at_zero
        assert np.array_equal(fredholm_det(bundle, [-1.0, 0.0, -0.0, 2.0]),
                              [at_zero, at_zero, at_zero, fredholm_det(bundle, 2.0)])

    def test_stack_matches_scalar_calls_and_dense_assembly(self, bundle):
        # the dense 2n x 2n Nystrom matrix assembled from 1-D kernel calls
        zs = [2.0, 3.5, 6.0]
        stack = fredholm_det(bundle, zs, 80)
        assert stack.shape == (3,)
        for z, d in zip(zs, stack):
            assert d == pytest.approx(fredholm_det(bundle, z, 80), rel=1e-14, abs=0)
            assert d == pytest.approx(dense_nystrom_det(bundle, z), rel=1e-12, abs=0)

    @pytest.mark.parametrize("params", [(2, 8, 1.0), (4, 8, 1.0), (8, 32, 1.0)])
    def test_sylvester_equals_dense_determinant_on_the_contour(self, params):
        # det(I_2N - Q) is the 2n x 2n Nystrom determinant, node by node.
        # Below the bulk the determinant is itself a cancellation (about
        # 1e-54 at (8, 32, 1), z = 0.5), so there the two agree absolutely.
        p = ModelParams(*params)
        eng = CdfEngine(p)
        nodes = eng.contour.nodes
        zs = [0.5, 1.0, 1.5, 2.0, 3.0, 5.0]
        for t in nodes[::max(1, len(nodes) // 5)]:
            b = KernelBundle.build(p, complex(t))
            for z, d in zip(zs, fredholm_det(b, zs)):
                tol = dict(rel=1e-12, abs=0) if z >= 1.5 else dict(rel=0, abs=1e-14)
                assert d == pytest.approx(dense_nystrom_det(b, z), **tol)

    def test_z_chunks_do_not_change_values(self, bundle, monkeypatch):
        # BLOCK_BYTES sets how many z share one batch: one z each, or all at once
        zs, values = np.linspace(1.0, 9.0, 7), {}
        for budget in (1, 2**40):
            monkeypatch.setattr(cdf_module, "BLOCK_BYTES", budget)
            values[budget] = fredholm_det(bundle, zs)
        assert np.array_equal(values[1], values[2**40])

    def test_64_z_stack_matches_per_z_calls(self, bundle):
        xmax = bundle.table.rule.xmax
        zs = np.linspace(0.5, xmax + 3.0, 64)
        stack = fredholm_det(bundle, zs)
        assert stack.shape == (64,) and np.any(zs >= xmax)
        for z, d in zip(zs, stack):
            if z >= xmax:
                assert d == 1.0
            else:
                assert d == pytest.approx(fredholm_det(bundle, z), rel=1e-14, abs=0)

    def test_scaled_reference_grid_is_the_shifted_rule(self, bundle):
        # z + s (x~, w~), s = xmax - z, from the one reference rule on [0, 1] is
        # the rule z + half_line_rule(xmax - z), and s eps on the reference rule its eps
        xmax, ref = bundle.table.rule.xmax, cdf_module._nystrom_rule(4)
        assert cdf_module._nystrom_rule(4) is ref
        for z in (0.4, 2.5, 9.0):
            s, own = xmax - z, half_line_rule(xmax - z, 4, 20)
            x, w = z + s * ref.x, s * ref.w
            assert np.max(np.abs(x / (z + own.x) - 1.0)) <= 1e-15
            # relative to the largest weight: in both rules the first node's weight
            # carries the cancellation in u = mid + scale ug_0, 1.5e-14 of itself
            assert np.max(np.abs(w - own.w)) <= 1e-15 * np.max(own.w)
            f = np.cos(x) * np.exp(-x)
            eps = s * EpsilonTransform(ref, f).at_nodes()
            assert np.max(np.abs(eps - EpsilonTransform(own, f).at_nodes())) < 1e-13

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
        assert engine.cdf(0.0).value == 0.0
        assert engine.cdf(-1.0).value == 0.0

    def test_anchor_self_consistency(self, p48, engine):
        # the anchor is the sum at xmax, so a z past it reads the anchor's own column
        r = engine.cdf(1.3 * engine.z_inf)
        assert r.value == 1.0

    def test_im_residual_small(self, engine):
        # the half-contour sum is exactly real; the key stays for its readers
        for z in (2.0, 4.0, 8.0):
            r = engine.cdf(z)
            assert r.diagnostics["im_residual"] == 0.0

    def test_monotone_and_bounded(self, engine):
        zs = np.linspace(0.4, 12.0, 20)
        vals = [engine.cdf(float(z)).value for z in zs]
        assert all(v2 >= v1 - 1e-6 for v1, v2 in zip(vals, vals[1:]))
        assert min(vals) > -1e-6 and max(vals) < 1.0 + 1e-6

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_loe_is_zero_at_and_below_the_origin(self, z):
        assert loe_direct_cdf(ModelParams(4, 8, 0.0), z) == 0.0

    @pytest.mark.parametrize("z", [float("nan"), True, "2"])
    def test_loe_refuses_a_z_that_is_not_a_finite_real(self, z):
        with pytest.raises(ConfigError, match="z must be"):
            loe_direct_cdf(ModelParams(4, 8, 0.0), z)

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
            assert eng.cdf(z).value == pytest.approx(
                loe_direct_cdf(p, z), abs=1e-6)

    @pytest.mark.parametrize("params", [(2, 3, 0.0), (2, 4, 1.0)])
    @pytest.mark.parametrize("route", ["pfaffian", "fredholm"])
    def test_one_at_and_past_xmax(self, params, route):
        # the anchor is the truncated model's whole range [0, xmax]; at these sets
        # z_inf < xmax, and an anchor there gave 1.0000000952 at (2, 3, 0)
        p = ModelParams(*params)
        xmax = default_xmax(p)
        eng = CdfEngine(p)
        assert eng.z_inf < xmax
        res = eng.cdf_grid([xmax, 1.5 * xmax, 2.0, 1e6], route)
        assert [r.value for r in res] == [1.0, 1.0, res[2].value, 1.0] and res[2].value < 1.0
        assert 0.0 < 1.0 - eng.cdf(eng.z_inf, route).value < 2e-7
        if params[2] == 0.0:
            assert loe_direct_cdf(p, xmax) == loe_direct_cdf(p, 1.5 * xmax) == 1.0
            assert res[0].diagnostics["anchor_gap"] < 1e-14

    def test_contour_invariance(self, p48, engine):
        wide = CdfEngine(p48, radius_factor=2.0)
        for z in (2.5, 3.5):
            assert wide.cdf(z).value == pytest.approx(
                engine.cdf(z).value, abs=1e-6)

    def test_determinism(self, p48):
        a = CdfEngine(p48).cdf(3.0).value
        b = CdfEngine(p48).cdf(3.0).value
        assert a == b

    def test_n2_reference_values(self):
        """Frozen regression values, validated against 1e5-sample MC during
        development (each within 3 binomial SE)."""
        p = ModelParams(2, 4, 1.0)
        eng = CdfEngine(p)
        expected = {2.0: 0.44545056, 2.75: 0.66365158, 3.5: 0.80812898,
                    4.25: 0.89431332, 5.0: 0.94306067}
        for z, v in expected.items():
            assert eng.cdf(z).value == pytest.approx(v, abs=2e-6)


class TestFredholmRoute:
    def test_route_agreement(self, engine):
        for z in (2.5, 4.5):
            a = engine.cdf(z).value
            b = engine.cdf(z, "fredholm").value
            assert abs(a - b) < 1e-3

    def test_zero_at_origin(self, engine):
        assert engine.cdf(0.0, "fredholm").value == 0.0

    def test_degenerate_node_raises_without_retry(self, p48, monkeypatch):
        calls = []

        def degenerate(cls, *args, **kw):
            calls.append(args)
            raise DegenerateSkewProductError("singular moment matrix")

        monkeypatch.setattr(KernelBundle, "build", classmethod(degenerate))
        with pytest.raises(DegenerateSkewProductError):
            CdfEngine(p48).cdf_grid([2.0], "fredholm")
        assert len(calls) == 1

    @pytest.mark.parametrize("params,zs", [((4, 8, 1.0), [2.0, 3.5, 5.0, None]),
                                           ((8, 32, 1.0), [1.5, 2.5])])
    def test_node_values_are_pfaffians_times_one_constant(self, params, zs):
        # Pf(Mtrunc)^2 = det M det(I - K chi) and e^{2 Lambda} = det M / |det M(t_i0)|,
        # so f / Pf is one real constant per z over the upper-half walk; a
        # wrong Lambda branch or root sign flips the ratio at the nodes past
        # the error, and a wrong phase at i0 makes it complex
        p = ModelParams(*params)
        eng = CdfEngine(p)
        zs = [eng.z_inf if z is None else z for z in zs]
        f, _ = eng._fredholm_values(zs)
        upper = eng.contour.nodes[:eng.contour.node_count // 2]
        assert len(f) == len(upper)
        pf = np.array([[pfaffian(m) for m in truncated_moment_matrix(p, t, zs)]
                       for t in upper])
        ratio = f / pf
        spread = np.max(np.abs(ratio - ratio[0]), axis=0) / np.abs(ratio[0])
        assert np.all(spread < 1e-10)
        assert np.all(np.abs(ratio.imag) <= 1e-12 * np.abs(ratio))

    def test_nystrom_doubling(self, p48, engine):
        fine = CdfEngine(p48, n_nystrom=160)
        assert abs(fine.cdf(3.5, "fredholm").value
                   - engine.cdf(3.5, "fredholm").value) < 1e-4

    @pytest.mark.parametrize("params", [(16, 32, 1.0), (12, 48, 0.5)])
    def test_lambda_walk_survives_det_m_underflow(self, params):
        # det M underflows to 0 at every contour node here; the walk runs on
        # slogdet, so the route still returns the Pfaffian route's value
        p = ModelParams(*params)
        eng = CdfEngine(p)
        f = eng.cdf(2.5, "fredholm").value
        assert all(np.all(np.linalg.det(b.table.entries[..., :p.N, :p.N]) == 0)
                   for b in eng._bundles)
        assert abs(f - CdfEngine(p).cdf(2.5).value) < 1e-6

    def test_n12_80_node_nystrom_rule_is_under_resolved(self):
        # at (12, 48, 1) the 80-node rule misses the Pfaffian value by about
        # 2e-6; doubling it shrinks the gap by more than 4x
        p = ModelParams(12, 48, 1.0)
        pf = CdfEngine(p).cdf(2.5).value
        gap = [abs(CdfEngine(p, n_nystrom=n).cdf(2.5, "fredholm").value - pf)
               for n in (80, 160)]
        assert gap[1] < gap[0] / 4.0

    def test_default_nystrom_rule_grows_with_n(self):
        # max(80, 10 N) rounded up to a multiple of 20; N <= 8 keeps 80 nodes
        assert [CdfEngine(ModelParams(N, 4 * N, 1.0)).n_nystrom
                for N in (2, 4, 8, 10, 12, 16)] == [80, 80, 80, 100, 120, 160]

    def test_n12_default_nystrom_rule_matches_pfaffian(self):
        p = ModelParams(12, 48, 1.0)
        pf = CdfEngine(p).cdf(2.5).value
        assert abs(CdfEngine(p).cdf(2.5, "fredholm").value - pf) < 1e-6

    def test_non_finite_log_det_m_raises(self, p48, monkeypatch):
        monkeypatch.setattr(np.linalg, "slogdet", slogdet_with_one_node_at_minus_inf)
        with pytest.raises(FloatingPointError, match=r"contour node \d+ .*\(4, 8, 1\)"):
            CdfEngine(p48).cdf(2.0, "fredholm")


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

    def test_a_1d_t_without_a_stacked_rule_is_a_config_error(self, p48):
        # the default rule adapts to one t; it was a raw ValueError from comparing an array
        with pytest.raises(ConfigError, match="stacked rule"):
            truncated_moment_matrix(p48, np.array([2 + 1j, 1 + 1j]), 3.0)

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
        # the first Pfaffian pass builds the z-free table, one stacked rule per build block
        # and every upper node once; the exact normaliser is in closed form, so no G0 moment
        # matrix is built; later passes on either route reuse the table and the anchor
        stacks, g0 = [], []
        stack, tmm = HalfLineRule.stack.__func__, cdf_module.truncated_moment_matrix
        monkeypatch.setattr(HalfLineRule, "stack", classmethod(
            lambda cls, xmax, edges, q: stacks.append(len(edges)) or stack(cls, xmax, edges, q)))
        monkeypatch.setattr(cdf_module, "truncated_moment_matrix",
                            lambda params, t, z, **kw: g0.append((t, z)) or tmm(params, t, z, **kw))
        eng = CdfEngine(p48)
        eng.cdf_grid(self.ZS)
        rows, anchor = eng._gram_table[0], eng._anchors["pfaffian"]
        assert g0 == []
        assert stacks == [len(b) for b in eng._node_blocks()] and sum(stacks) == eng.contour.node_count // 2
        stacks.clear()
        eng.cdf_grid(self.ZS)
        assert stacks == []
        eng.cdf_grid(self.ZS, "fredholm")
        assert eng._gram_table[0] is rows and eng._anchors["pfaffian"] == anchor and g0 == []

    def test_each_distinct_z_evaluated_once(self, p48, monkeypatch):
        # each pass reads the table once per node block over the distinct z only, and takes
        # one batched elimination per block, of its packed triangles (N (N - 1) / 2, nodes x z),
        # lanes last and contiguous: the set-up call sees xmax once (z_inf lies past it and is
        # evaluated as xmax), a grid's repeats (z_inf among them) are read back from their
        # first evaluation; the public `pfaffian` is never called (G0 is in closed form)
        seen, pf_calls, layouts = [], [], []
        read, pf, eliminate = cdf_module._read_gram, cdf_module.pfaffian, cdf_module._eliminate
        packed = p48.N * (p48.N - 1) // 2

        def read_spy(rows, start, edges, panel, xq, sample):
            seen.append((len(edges), np.asarray(xq).tolist()))
            return read(rows, start, edges, panel, xq, sample)

        monkeypatch.setattr(cdf_module, "_read_gram", read_spy)
        monkeypatch.setattr(cdf_module, "pfaffian", lambda A: pf_calls.append(np.shape(A)) or pf(A))
        monkeypatch.setattr(cdf_module, "_eliminate", lambda W: pf_calls.append(np.shape(W))
                            or layouts.append(W.flags.c_contiguous) or eliminate(W))
        eng = CdfEngine(p48)
        n = eng.contour.node_count // 2
        eng.cdf(eng.z_inf)
        assert {tuple(z) for _, z in seen} == {(eng.xmax,)}
        assert [b for b, _ in seen] == [s[-1] for s in pf_calls]
        assert sum(b for b, _ in seen) == n
        assert {s[:-1] for s in pf_calls} == {(packed,)} and all(layouts)
        seen.clear()
        pf_calls.clear()
        grid = [3.0, 2.0, 3.0, eng.z_inf, 2.0, -1.0, 3.0]
        res = eng.cdf_grid(grid)
        assert {tuple(z) for _, z in seen} == {(2.0, 3.0, eng.xmax)}
        assert sum(b for b, _ in seen) == n and [3 * b for b, _ in seen] == [s[-1] for s in pf_calls]
        assert {s[:-1] for s in pf_calls} == {(packed,)} and all(layouts)
        assert res[0] == res[2] == res[6] and res[1] == res[4]
        assert [r.z for r in res] == grid and res[0] != res[1]
        assert res[3].value == 1.0

    def test_a_later_pass_samples_no_whole_rule(self, p48, monkeypatch):
        # the table holds all a pass needs of the node rules: after the first pass no
        # cumulative table is formed, and L_j w is taken only on the q nodes of z's panels
        cums, sampled = [], []
        cum, lw = HalfLineRule.cumulative, cdf_module._weighted_laguerre
        monkeypatch.setattr(HalfLineRule, "cumulative",
                            lambda self, f: cums.append(np.shape(f)) or cum(self, f))
        monkeypatch.setattr(cdf_module, "_weighted_laguerre",
                            lambda params, t, x, kmax: sampled.append(np.shape(x)) or lw(params, t, x, kmax))
        eng = CdfEngine(p48)
        eng.cdf(eng.z_inf)
        assert len(cums) == len(eng._node_blocks())            # the build blocks alone
        cums.clear()
        sampled.clear()
        eng.cdf_grid(list(np.linspace(1.0, 6.0, 48)))
        assert cums == [] and len(sampled) == len(eng._node_blocks(48))
        assert {s[-1] for s in sampled} == {eng.q}

    def test_a_pass_samples_each_node_panel_once_and_each_head_place_once(self, p48, monkeypatch):
        # the 48-z pass at (4, 8, 1) has 60 upper nodes, so 2,880 (node, z) items; per block it
        # samples L_j w once on each distinct (node, panel) that holds a z (645 in all) and
        # evaluates the head table once at each distinct place v of a z in its panel (714)
        eng = CdfEngine(p48)
        eng.cdf(eng.z_inf)
        sampled, heads = [], []
        lw, head = cdf_module._weighted_laguerre, quadrature._head_at
        monkeypatch.setattr(cdf_module, "_weighted_laguerre",
                            lambda params, t, x, kmax: sampled.append((t, x)) or lw(params, t, x, kmax))
        monkeypatch.setattr(quadrature, "_head_at",
                            lambda panel, v, m_only=False: heads.append(v) or head(panel, v, m_only))
        zs = np.linspace(1.0, 6.0, 48)
        eng.cdf_grid(list(zs))
        blocks, uz = eng._node_blocks(48), np.sqrt(zs)
        assert len(sampled) == len(heads) == len(blocks) and sum(map(len, blocks)) * len(zs) == 2880
        for nodes, (t, x), v in zip(blocks, sampled, heads):
            pairs, places = [], set()
            for i in nodes:
                e = eng._edges[i]
                p = np.searchsorted(e, uz, side="right") - 1
                inside = p < len(e) - 1
                p = p[inside]
                pairs += [(i, k) for k in np.unique(p)]
                du = uz[inside] - e[p]
                places |= set(np.minimum(2.0 * du / (e[p + 1] - e[p]) - 1.0, 1.0))
            assert np.array_equal(t, eng.contour.nodes[[i for i, _ in pairs]])
            lo, hi = np.array([eng._edges[i][k:k + 2] for i, k in pairs]).T ** 2
            assert x.shape == (len(pairs), eng.q) and np.all((lo < x.T) & (x.T < hi))
            assert len(np.unique(v)) == len(v) and set(v) == places
        assert sum(len(x) for _, x in sampled) == 645 and sum(map(len, heads)) == 714

    def test_a_fredholm_pass_reads_the_node_rules_only_at_z(self, p48, monkeypatch):
        # eps(L_j w) at the Nystrom points comes from the transform on the Nystrom rule:
        # a pass queries each block's node rule once, at the grid's live z alone (the
        # distinct z in (0, xmax); z_inf lies past xmax), never at a Nystrom point
        calls, cum_at = [], HalfLineRule.cum_at

        def cum_at_spy(rule, f, xq):
            calls.append((rule, np.asarray(xq).tolist()))
            return cum_at(rule, f, xq)

        monkeypatch.setattr(HalfLineRule, "cum_at", cum_at_spy)
        eng = CdfEngine(p48)
        assert eng.z_inf > default_xmax(p48)
        eng.cdf(eng.z_inf, "fredholm")
        assert calls == []
        eng.cdf_grid([3.0, 2.0, 3.0, eng.z_inf, -1.0, 5.0], "fredholm")
        assert len(calls) == len(eng._bundles) > 1
        assert all(r is b.table.rule and xq == [2.0, 3.0, 5.0] for (r, xq), b in zip(calls, eng._bundles))

    def test_fredholm_point_equals_its_value_inside_a_grid(self, p48):
        # a fresh engine's cdf(z) is bitwise the same z of the fredholm-n4 grid
        grid = [2.0, 3.0, 4.0, 5.0]
        res = CdfEngine(p48).cdf_grid(grid, "fredholm")
        assert [CdfEngine(p48).cdf(z, "fredholm") for z in grid] == res

    def test_pfaffian_point_equals_its_value_inside_a_grid(self, p48, monkeypatch):
        # a z's truncated Grams do not depend on the other z of the call, nor on the
        # blocks of the table build and the pass, and the contour sum adds each column
        # in the same order
        grid = [1.0, 2.0, 3.0, 6.0]
        res = CdfEngine(p48).cdf_grid(grid)
        assert [CdfEngine(p48).cdf(z) for z in grid] == res
        monkeypatch.setattr(cdf_module, "BLOCK_BYTES", 1)
        assert [CdfEngine(p48).cdf(z) for z in grid] == res
        eng = CdfEngine(p48)
        eng.cdf(eng.z_inf)
        assert eng.cdf_grid([2.0, eng.z_inf])[1].value == 1.0

    def test_duplicates_equal_on_the_fredholm_route(self, engine):
        res = engine.cdf_grid([4.0, 2.0, 4.0], "fredholm")
        assert res[0] == res[2] and res[0] != res[1]

    @pytest.mark.parametrize("radius_factor", [0.8, 0.0, float("nan"), float("inf")])
    def test_radius_factor_must_be_finite_and_at_least_one(self, p48, radius_factor):
        # below 1 the circle stops enclosing the cut: at 0.8 its leftmost
        # point is +0.3 at (4, 8, 1), and CDF(2) came out 0.1910, not 0.2177
        with pytest.raises(ConfigError, match="radius_factor"):
            CdfEngine(p48, radius_factor=radius_factor)

    def test_engine_keywords(self):
        # the discretisation knobs a caller can set; the contour's node floor and margin are fixed
        assert list(inspect.signature(CdfEngine).parameters) == [
            "params", "radius_factor", "n_panels", "q", "n_nystrom"]

    def test_contour_keeps_its_node_floor_and_margin(self):
        # at tau = 0 the cut is the point 0: the circle is the margin, 0.5 about it, on
        # the 64-node floor
        c = CdfEngine(ModelParams(2, 3, 0.0)).contour
        assert (c.center, c.radius, c.node_count) == (0j, 0.5, 64)

    @pytest.mark.parametrize("n_panels", [1, 0, 2.5, 24.0, True, "24"])
    def test_n_panels_is_checked_at_construction(self, p48, n_panels):
        # not on the first evaluation, and never as a raw TypeError
        with pytest.raises(ConfigError, match="n_panels"):
            CdfEngine(p48, n_panels=n_panels)

    @pytest.mark.parametrize("name,good", [("radius_factor", 2), ("n_nystrom", 80)])
    def test_shared_checks_refuse_booleans_and_non_finite_values(self, p48, name, good):
        for bad in (True, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=name):
                CdfEngine(p48, **{name: bad})
        a, b = CdfEngine(p48, **{name: np.int64(good)}), CdfEngine(p48, **{name: good})
        assert np.array_equal(a.contour.nodes, b.contour.nodes) and a.n_nystrom == b.n_nystrom

    @pytest.mark.parametrize("name", ["radius_factor"])
    def test_booleans_are_refused(self, p48, name):
        # radius_factor=True would otherwise be the default circle
        with pytest.raises(ConfigError, match=name):
            CdfEngine(p48, **{name: True})

    @pytest.mark.parametrize("route", ["pfaffian", "fredholm"])
    @pytest.mark.parametrize("z", [True, "3.0", float("nan")])
    def test_every_z_must_be_a_finite_real(self, engine, route, z):
        # [True, "3.0"] would otherwise give the CDF at z = 1 and at z = 3
        with pytest.raises(ConfigError, match="z must be a finite real"):
            engine.cdf_grid([2.0, z], route)

    @pytest.mark.parametrize("q", [3, 2.5])
    def test_q_is_checked_at_construction(self, p48, q):
        with pytest.raises(ConfigError, match="q must be"):
            CdfEngine(p48, q=q)

    @pytest.mark.parametrize("route", ["pfaffian", "fredholm"])
    def test_one_reference_panel_per_engine(self, p48, monkeypatch, route):
        # every node rule of the anchor pass and of a later grid is built on
        # the process's one panel of the engine's q, so from an empty panel cache
        # that q reaches leggauss once; the t- and z-free reference Nystrom rule
        # (q = 20) is kept per panel count
        fresh_panel_cache(monkeypatch)
        calls, leggauss = [], quadrature.leggauss
        monkeypatch.setattr(quadrature, "leggauss", lambda q: calls.append(q) or leggauss(q))
        eng = CdfEngine(p48)
        eng.cdf(eng.z_inf, route)
        eng.cdf_grid(self.ZS, route)
        assert calls.count(eng.q) == 1
        assert route == "fredholm" or calls == [eng.q]

    def test_no_legendre_recurrence_per_z_on_the_pfaffian_route(self, p48, monkeypatch):
        # the truncated Grams read the panel's head tables: the first grid on a
        # fresh panel builds them (one recurrence), a later grid makes no per-z Legendre work
        fresh_panel_cache(monkeypatch)
        eng, calls, values = CdfEngine(p48), [], quadrature._legendre_values
        panel = quadrature.reference_panel(eng.q)
        monkeypatch.setattr(quadrature, "_legendre_values", lambda *a: calls.append(a) or values(*a))
        eng.cdf_grid(self.ZS)
        assert len(calls) == 1 and "head" in vars(panel)
        eng.cdf_grid(list(np.linspace(0.5, 7.5, 15)))
        assert len(calls) == 1

    def test_one_pfaffian_per_node_block_and_one_rule_per_node(self, p48, monkeypatch):
        # every upper node's panel edges come from one batched ladder call, and the exact
        # normaliser is in closed form, so no rule is built at t = 1 for G0; set-up builds one
        # stacked rule per block of nodes and no rule per node, and each pass takes one batched
        # Pfaffian per block, fewer blocks than nodes
        ts, ladders, rules, built, pfs = [], [], [], [], []
        refinement, panel_edges, init = cdf_module._refinement, cdf_module._panel_edges, HalfLineRule.__init__
        rule_for_t, pf, eliminate = skew_module.rule_for_t, cdf_module.pfaffian, cdf_module._eliminate
        monkeypatch.setattr(cdf_module, "_refinement", lambda p, t: ts.append(t.tolist()) or refinement(p, t))
        monkeypatch.setattr(cdf_module, "_panel_edges", lambda *a: ladders.append(len(a[1])) or panel_edges(*a))
        monkeypatch.setattr(skew_module, "rule_for_t", lambda *a: rules.append(a[1]) or rule_for_t(*a))
        monkeypatch.setattr(HalfLineRule, "__init__", lambda r, *a: built.append(np.ndim(a[1])) or init(r, *a))
        monkeypatch.setattr(cdf_module, "pfaffian", lambda A: pfs.append(np.shape(A)) or pf(A))
        monkeypatch.setattr(cdf_module, "_eliminate", lambda W: pfs.append(np.shape(W)) or eliminate(W))
        eng = CdfEngine(p48)
        n = eng.contour.node_count // 2
        eng.cdf(eng.z_inf)
        assert len(pfs) == len(eng._node_blocks(1)) < n
        pfs.clear()
        eng.cdf_grid(list(np.linspace(1.0, 6.0, 48)))
        assert len(pfs) == len(eng._node_blocks(48)) < n
        assert ts == [eng.contour.nodes[:n].tolist()] and ladders == [n] and rules == []
        # one stacked rule (2-D u_edges) per block, and no other
        assert built == [2] * len(eng._node_blocks()) and len(eng._node_blocks()) < n

    @pytest.mark.parametrize("nmt", [(4, 8, 1.0), (16, 64, 1.0), (8, 32, 1.0), (12, 48, 0.3),
                                     (4, 16, 2.0), (4, 8, 0.0)])
    def test_batched_node_edges_are_each_nodes_rule_for_t(self, nmt):
        p = ModelParams(*nmt)
        eng = CdfEngine(p)
        nodes = eng.contour.nodes[:eng.contour.node_count // 2]
        assert len(eng._edges) == len(nodes)
        for e, t in zip(eng._edges, nodes):
            assert np.array_equal(e, rule_for_t(p, complex(t), eng.n_panels, eng.q).u_edges)
        # tau > 0 refines the nodes near the positive real axis; tau = 0 none
        assert any(len(e) > eng.n_panels + 1 for e in eng._edges) == (p.tau > 0)

    def test_one_bundle_and_one_determinant_per_block(self, p48, monkeypatch):
        # the anchor pass and a later grid share one stacked KernelBundle per
        # block of upper-half nodes (no bundles off the contour, none on the
        # lower half, every upper node in exactly one block), and each pass
        # takes one batched Nystrom determinant per block, fewer than nodes
        builds, dets = [], []
        build, det = KernelBundle.build.__func__, cdf_module.fredholm_det

        def build_spy(cls, params, t, **kw):
            builds.append(np.atleast_1d(t).tolist())
            return build(cls, params, t, **kw)

        def det_spy(bundle, z, n_nystrom=None):
            dets.append(np.atleast_1d(bundle.t).tolist())
            return det(bundle, z, n_nystrom)

        monkeypatch.setattr(KernelBundle, "build", classmethod(build_spy))
        monkeypatch.setattr(cdf_module, "fredholm_det", det_spy)
        eng = CdfEngine(p48)
        n = eng.contour.node_count // 2
        for zs in (self.ZS, [3.0]):
            eng.cdf_grid(zs, "fredholm")
            assert dets == builds
            dets.clear()
        assert 1 < len(builds) == len(eng._node_blocks()) < n
        assert sorted((t for ts in builds for t in ts), key=np.angle) == \
            sorted(eng.contour.nodes[:n].tolist(), key=np.angle)

    def test_lambda_is_built_once_per_engine(self, p48, monkeypatch):
        # Lambda is z-free: the anchor pass takes one batched resolvent trace
        # per block, over every upper-half node once, and a later grid reuses it
        traces = []
        trace = KernelBundle.resolvent_trace
        monkeypatch.setattr(KernelBundle, "resolvent_trace",
                            lambda b: traces.append(np.atleast_1d(b.t).tolist()) or trace(b))
        eng = CdfEngine(p48)
        eng.cdf(eng.z_inf, "fredholm")
        eng.cdf_grid(self.ZS, "fredholm")
        n = eng.contour.node_count // 2
        assert len(traces) == len(eng._bundles) < n
        assert sorted((t for ts in traces for t in ts), key=np.angle) == \
            sorted(eng.contour.nodes[:n].tolist(), key=np.angle)

    def test_bundle_cache_holds_contour_nodes_only(self, engine):
        # one bundle per block, the blocks in node order: together they hold
        # the upper-half nodes, each once
        engine.cdf_grid(self.ZS, "fredholm")
        n = engine.contour.node_count // 2
        assert 1 < len(engine._bundles) < n
        assert np.array_equal(np.concatenate([b.t for b in engine._bundles]), engine.contour.nodes[:n])

    def test_block_determinants_are_the_one_node_determinants(self, p48):
        # a block's batched Nystrom determinants against fredholm_det on a
        # one-node bundle with the node's own (unpadded) rule
        eng, zs = CdfEngine(p48), [2.0, 3.0, 4.0, 5.0]
        eng.cdf_grid(zs, "fredholm")
        blocked = np.concatenate([fredholm_det(b, zs) for b in eng._bundles])
        for t, row in zip(eng.contour.nodes[:len(blocked)], blocked):
            one = fredholm_det(KernelBundle.build(p48, complex(t)), zs)
            assert np.max(np.abs(row - one) / np.abs(one)) <= 1e-12

    def test_fredholm_grid_pass_memory(self, p48):
        # tracemalloc peak of one 48-z Fredholm pass on a set-up engine, the
        # held bundles included; the per-node pass that the node blocks
        # replaced peaked at 16.623 MB here
        tracemalloc.start()
        try:
            eng = CdfEngine(p48)
            eng.cdf(eng.z_inf, "fredholm")
            tracemalloc.reset_peak()
            eng.cdf_grid(np.linspace(1.0, 6.0, 48), "fredholm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16.63e6

    def test_fredholm_set_up_memory(self, p48):
        # tracemalloc bytes a fresh engine holds after its Fredholm set-up: each
        # bundle keeps its samples of L_j w once, with their epsilon transform and
        # mu (4.75 MB); holding the Laguerre values and the weight as well reads
        # 6.82 MB.  A first engine warms the caches that outlive an engine.
        CdfEngine(p48).cdf(2.0, "fredholm")
        tracemalloc.start()
        try:
            eng = CdfEngine(p48)
            eng.cdf(eng.z_inf, "fredholm")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 5.5e6

    def test_pfaffian_grid_pass_memory(self, p48):
        # tracemalloc peak of one 48-z Pfaffian pass on a set-up engine, the held table
        # included (2.79 MB with packed Grams, 2.92 MB with N x N Grams): about 2.4 MB of
        # (node, z) pairs per block, over a 0.3 MB table.  The pass that formed every node's
        # samples, cumulative table and per-panel blocks on each call peaked at 2.17 MB here.
        # A first pass warms the caches that outlive an engine.
        CdfEngine(p48).cdf_grid(np.linspace(1.0, 6.0, 48))
        tracemalloc.start()
        try:
            eng = CdfEngine(p48)
            eng.cdf(eng.z_inf)
            tracemalloc.reset_peak()
            eng.cdf_grid(np.linspace(1.0, 6.0, 48))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2e6

    def test_pfaffian_set_up_memory(self):
        # tracemalloc bytes a fresh (16, 64, 1) engine holds after its Pfaffian set-up: the
        # z-free table, 2,178 rows of 136 complex numbers (4.7 MB), beside the node edges
        # (4.80 MB held, with packed Grams as before them).  A first engine warms the caches
        # that outlive an engine.
        p = ModelParams(16, 64, 1.0)
        CdfEngine(p).cdf(2.5)
        tracemalloc.start()
        try:
            eng = CdfEngine(p)
            eng.cdf(eng.z_inf)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rows, _ = eng._gram_table
        assert rows.shape == (sum(map(len, eng._edges)), 136)
        assert held <= 5.5e6

    def test_cancellation_digits(self, p48, engine):
        c = engine.contour
        pf = np.array([pfaffian(truncated_moment_matrix(p48, t, 2.0)) for t in c.nodes])
        terms = c.weights * np.exp(p48.M * c.nodes) * pf
        expect = np.log10(np.sum(np.abs(terms)) / abs(np.sum(terms)))
        got = engine.cdf(2.0).diagnostics["cancellation_digits"]
        assert got == pytest.approx(expect, rel=1e-6)


class TestNodeBlocks:
    """Both routes' node blocks against the one-node path and against each other, bit for bit."""

    @staticmethod
    def per_node(eng, zs):
        p, h = eng.params, eng.contour.node_count // 2
        return np.array([truncated_moment_matrix(p, t, zs) for t in eng.contour.nodes[:h]])

    @pytest.mark.parametrize("params,zs", [((4, 8, 1.0), [1.0, 2.5, 6.0]),
                                           ((8, 32, 1.0), [1.55, 2.25]),
                                           ((16, 64, 1.0), [1.9, 2.62, 3.1])])
    def test_block_pfaffians_are_the_per_node_pfaffians(self, params, zs, monkeypatch):
        # whatever the budget, which cuts both the table build and the pass into blocks,
        # the engine's Grams are bitwise each node's own truncated_moment_matrix, and so
        # are its Pfaffians
        p = ModelParams(*params)
        zs = np.array(zs + [CdfEngine(p).z_inf])
        want = self.per_node(CdfEngine(p), zs)
        for budget in (1, cdf_module.BLOCK_BYTES, 2**40):
            monkeypatch.setattr(cdf_module, "BLOCK_BYTES", budget)
            eng = CdfEngine(p)
            for nodes in eng._node_blocks(len(zs)):
                W = quadrature._unpack(eng._grams(nodes, zs))
                assert np.array_equal(np.moveaxis(W, -1, 0).reshape(want[nodes].shape), want[nodes])
            assert np.array_equal(eng._node_values(zs, "pfaffian")[0], pfaffian(want))

    def test_fredholm_values_do_not_depend_on_the_budget(self, p48, monkeypatch):
        # one bundle per node and one z per Nystrom chunk, the default blocks, and one block
        # of every node with every z in one chunk: the same values and diagnostics, bit for bit
        zs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        results, bundles = [], []
        for budget in (1, cdf_module.BLOCK_BYTES, 2**40):
            monkeypatch.setattr(cdf_module, "BLOCK_BYTES", budget)
            eng = CdfEngine(p48)
            results.append(eng.cdf_grid(zs, "fredholm"))
            bundles.append(len(eng._bundles))
        assert bundles[0] == len(eng._edges) > bundles[1] > bundles[2] == 1
        assert results[0] == results[1] == results[2]

    def test_block_edges_and_padding_do_not_leak(self, monkeypatch):
        # one block of every node, padded to the most panels, and one block per node, for
        # the table build and for the pass: z past xmax, and z inside a short rule's last
        # panel, which sits right below that rule's padding
        p = ModelParams(16, 64, 1.0)
        eng = CdfEngine(p)
        counts = [len(e) - 1 for e in eng._edges]
        short = eng._edges[int(np.argmin(counts))]
        assert min(counts) < max(counts)
        z_last = (0.5 * (short[-2] + short[-1])) ** 2
        assert short[-2] ** 2 < z_last < default_xmax(p)
        zs = np.array([2.5, z_last, default_xmax(p), default_xmax(p) + 1.0])
        values = {}
        for budget in (1, 2**40):
            monkeypatch.setattr(cdf_module, "BLOCK_BYTES", budget)
            eng = CdfEngine(p)
            for blocks in (eng._node_blocks(), eng._node_blocks(len(zs))):
                assert len(blocks) == (len(counts) if budget == 1 else 1)
            values[budget] = eng._node_values(zs, "pfaffian")[0]
        assert np.array_equal(values[1], values[2**40])
        assert np.array_equal(values[1], pfaffian(self.per_node(eng, zs)))

    def test_table_rows_are_each_nodes_own_gram_rows(self, p48):
        # the table keeps each node's own panel edges only, no padding: bitwise the
        # gram_rows of the node's own rule and samples, and one row per edge
        eng = CdfEngine(p48)
        rows, start = eng._gram_table
        assert len(rows) == sum(map(len, eng._edges)) and rows.shape[1] == p48.N * (p48.N + 1) // 2
        for i in (0, len(eng._edges) // 2, len(eng._edges) - 1):
            own = SkewProductTable.build(p48, eng.contour.nodes[i], kmax=p48.N - 1).eps.gram_rows()
            assert np.array_equal(rows[start[i]:start[i] + len(eng._edges[i])], own)

    def test_blocks_cover_every_node_once(self, p48):
        # every plan, the z-free builds' and a pass's, cuts the upper nodes into runs of
        # consecutive nodes in node order, the order of the Fredholm walk
        eng = CdfEngine(p48)
        eng.cdf(eng.z_inf)
        build, sparse, dense = eng._node_blocks(), eng._node_blocks(1), eng._node_blocks(48)
        for blocks in (build, sparse, dense):
            assert all(len(b) > 0 for b in blocks)
            assert np.array_equal(np.concatenate(blocks), np.arange(len(eng._edges)))
        # a pass counts its (node, z) pairs, so a dense grid makes for smaller blocks
        assert len(dense) > len(sparse)
        # and the nodes past a block's first stay below the budget
        pair = cdf_module._pair_bytes(p48.N, eng.q)
        assert all((len(b) - 1) * 48 * pair < cdf_module.BLOCK_BYTES for b in dense)
        # a build counts each node's complex samples of L_j w (N x n_quad): the nodes past a
        # block's first stay below the budget, and a block ends where the next node reaches it
        samples = 16 * p48.N * (np.array([len(e) for e in eng._edges]) - 1) * eng.q
        assert 1 < len(build) and all(samples[b[1:]].sum() < cdf_module.BLOCK_BYTES for b in build)
        assert all(samples[b].sum() + samples[c[0]] >= cdf_module.BLOCK_BYTES for b, c in zip(build, build[1:]))

    def test_padding_panels_have_zero_weight_above_every_point(self, p48):
        eng = CdfEngine(p48)
        eng.cdf(eng.z_inf)
        edges = sorted(eng._edges, key=len)
        rule = HalfLineRule.stack(default_xmax(p48), [edges[0], edges[-1]], eng.q)
        short = len(edges[0]) - 1
        assert rule.x.shape == (2, rule.n_panels * rule.q) and rule.n_panels == len(edges[-1]) - 1
        assert np.all(rule.w[0, short * rule.q:] == 0.0)
        assert np.all(rule.x[0, short * rule.q:] >= rule.x[0, :short * rule.q].max())

    def test_a_node_on_the_branch_point_raises_through_the_batched_weight(self, p48):
        eng = CdfEngine(p48)
        eng.cdf(eng.z_inf)
        rule = HalfLineRule.stack(default_xmax(p48), eng._edges[:2], eng.q)
        ts = np.array([eng.contour.nodes[0], p48.tau_tilde * rule.x[1, 5]])
        with pytest.raises(SingularWeightError):
            truncated_moment_matrix(p48, ts, [2.0], rule=rule)


class TestHalfContour:
    @pytest.mark.parametrize("params,zs", [((4, 8, 1.0), [2.0, 3.0, 4.0, 5.0]),
                                           ((8, 32, 1.0), [1.5, 2.5])])
    def test_value_equals_all_node_oracle(self, params, zs):
        # the plain trapezoid sum over every node of the circle, both halves
        p = ModelParams(*params)
        eng = CdfEngine(p)
        c = eng.contour
        pf = np.array([[pfaffian(m) for m in truncated_moment_matrix(p, t, zs + [eng.xmax])]
                       for t in c.nodes])
        sums = (c.weights * np.exp(p.M * c.nodes)) @ pf
        oracle = (sums[:-1] / sums[-1]).real
        got = [r.value for r in eng.cdf_grid(zs)]
        assert np.max(np.abs(np.array(got) - oracle)) < 1e-7

    def test_pfaffian_is_conjugate_symmetric(self):
        p = ModelParams(16, 64, 1.0)
        eng = CdfEngine(p)
        for t in eng.contour.nodes[::8]:
            a, b = (pfaffian(truncated_moment_matrix(p, s, 3.5))
                    for s in (t, np.conj(t)))
            assert abs(b - np.conj(a)) <= 1e-13 * abs(a)

    def test_lower_half_nodes_mirror_the_upper_half(self, engine):
        c, n = engine.contour, engine.contour.node_count
        assert np.allclose(c.nodes[::-1][:n // 2], np.conj(c.nodes[:n // 2]), rtol=0, atol=1e-14)
        assert np.allclose(c.weights[::-1][:n // 2], -np.conj(c.weights[:n // 2]),
                           rtol=0, atol=1e-14)

    @pytest.mark.parametrize("route", ["pfaffian", "fredholm"])
    @pytest.mark.parametrize("params,lo,hi", [((4, 8, 1.0), 0.0, 1e-6),
                                              ((8, 32, 1.0), 1e-5, 1e-4)])
    def test_anchor_gap(self, params, lo, hi, route):
        # the anchor's shortfall against the closed-form normaliser: roundoff
        # at (4, 8, 1), the dropped part of the cut at (8, 32, 1)
        eng = CdfEngine(ModelParams(*params))
        res = eng.cdf_grid([2.0, 3.0], route)
        gaps = {r.diagnostics["anchor_gap"] for r in res}
        assert len(gaps) == 1 and lo <= gaps.pop() < hi

    def test_anchor_gap_is_inf_once_the_ratio_passes_e700(self, p48, monkeypatch):
        # the ratio anchor / exact is taken in logs; past e^700 its gap reads inf, not an overflow
        monkeypatch.setattr(CdfEngine, "_log_exact_anchor", -1000.0)
        assert CdfEngine(p48).cdf(3.0).diagnostics["anchor_gap"] == np.inf

    @pytest.mark.parametrize("nm", [(2, 3), (4, 8), (4, 16), (8, 32), (12, 48), (16, 17), (16, 32),
                                    (16, 64), (20, 80), (24, 96)])
    def test_exact_normaliser_is_the_selberg_closed_form(self, nm):
        # log |Pf(G0)| from the Selberg integral matches the Pfaffian of G0 on G0's quadrature rule,
        # taken as Pf(D G0 D) / det D with D = diag(1 / sqrt(max_k |G0_jk|)); at (20, 80) and
        # (24, 96) the unscaled Pfaffian underflows to 0, which left the normaliser NaN
        N, M = nm
        p0 = ModelParams(N, M, 0.0)
        g0 = truncated_moment_matrix(p0, 1.0, np.inf, rule=rule_for_t(p0, 1.0))
        d = 1.0 / np.sqrt(np.abs(g0).max(axis=1))
        log_pf0 = np.log(abs(pfaffian(d[:, None] * g0 * d))) - np.log(d).sum()
        got = CdfEngine(ModelParams(N, M, 1.0))._log_exact_anchor
        want = (np.log(2.0 * np.pi) + 0.5 * M * np.log(2.0) + (0.5 * N - 1.0) * np.log(M)
                - math.lgamma(0.5 * N) + log_pf0)
        assert np.isfinite(got) and got == pytest.approx(want, rel=1e-15, abs=1e-15)
        assert (pfaffian(g0) == 0.0) == (N >= 20)


class TestPrecisionGuard:
    @pytest.mark.parametrize("params,route", [((8, 32, 2.0), "pfaffian"),
                                              ((4, 16, 2.0), "fredholm")])
    def test_cancelled_values_are_refused(self, params, route):
        # about 15 digits lost: the values come out as -0.25 and 0.75 at z = 2
        with pytest.raises(PrecisionLossError):
            CdfEngine(ModelParams(*params)).cdf_grid([2.0, 3.0], route)


class TestUnrepresentableContour:
    # M Re t >= log(float max) at the circle's rightmost node: e^{M t} overflows there, so the
    # anchor is NaN after the whole pass (up to 2.4 s and 186 MB; 48 million nodes at tau = 1e6)
    @pytest.mark.parametrize("params", [(4, 8, 1e6), (4, 8, 30.0), (4, 8, 100.0), (4, 8, 26.3),
                                        (16, 64, 50.0), (2, 1372, 1.0), (2, 1400, 1.0), (2, 10000, 1.0)])
    def test_is_refused_before_any_rule_is_built(self, params, monkeypatch):
        def no_circle(*args):
            raise AssertionError("a circle was built")

        monkeypatch.setattr(cdf_module.ContourSpec, "circle", no_circle)
        p = ModelParams(*params)
        tracemalloc.start()
        try:
            with pytest.raises(FloatingPointError, match=re.escape(f"({p.N}, {p.M}, {p.tau:g})")):
                CdfEngine(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("params", [(4, 8, 1.0), (8, 32, 1.0), (16, 64, 1.0), (4, 8, 10.0),
                                        (4, 8, 26.2), (16, 64, 10.0), (2, 1000, 1.0), (2, 1371, 1.0)])
    def test_a_representable_contour_is_built(self, params):
        eng = CdfEngine(ModelParams(*params))
        with np.errstate(over="raise"):
            assert np.isfinite(np.exp(eng.params.M * np.max(eng.contour.nodes.real)))
