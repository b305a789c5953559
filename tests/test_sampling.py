import tracemalloc

import numpy as np
import pytest

from wishart_lab import (ConfigError, McConfig, ModelParams, contour_integral_I,
                         haar_orthogonal, haar_orthogonal_integral, haar_unitary,
                         haar_unitary_integral,
                         loe_direct_cdf, make_contour, sample_wishart_all_eigs,
                         sample_wishart_max_eig, sphere_integral_oracle)
from wishart_lab import sampling


def dense_all_eigs(cfg: McConfig, chunk: int = 1000) -> np.ndarray:
    """Oracle: eigenvalues of S = X X^T / M from the dense N x M Gaussian X itself.

    N M normals per sample, the first row of X scaled by sqrt(1 + tau); the
    model's definition, with no reduction.  Ascending, shape (n_samples, N).
    """
    p = cfg.params
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    out = []
    for start in range(0, cfg.n_samples, chunk):
        X = rng.standard_normal((min(chunk, cfg.n_samples - start), p.N, p.M))
        X[:, 0, :] *= np.sqrt(1.0 + p.tau)
        out.append(np.linalg.eigvalsh(X @ np.swapaxes(X, 1, 2) / p.M))
    return np.concatenate(out)


def ks_two_sample(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_x - F_y|."""
    x, y = np.sort(x), np.sort(y)
    pts = np.concatenate([x, y])
    return float(np.max(np.abs(np.searchsorted(x, pts, side="right") / x.size
                               - np.searchsorted(y, pts, side="right") / y.size)))


def moment_sigmas(a, b) -> tuple[float, float]:
    """|mean difference| and |variance difference| of two samples, in standard errors."""
    va, vb = a.var(ddof=1), b.var(ddof=1)
    m4a, m4b = np.mean((a - a.mean()) ** 4), np.mean((b - b.mean()) ** 4)
    se_mean = np.sqrt(va / a.size + vb / b.size)
    se_var = np.sqrt((m4a - va**2) / a.size + (m4b - vb**2) / b.size)
    return abs(a.mean() - b.mean()) / se_mean, abs(va - vb) / se_var


class TestWishartSampler:
    def test_trace_mean(self):
        # E[sum of eigenvalues] = E[tr S] = N (1 + tau / N); chi-square sanity
        p = ModelParams(2, 4, 0.0)
        eigs = sample_wishart_all_eigs(McConfig(123, 40_000, p))
        tr = eigs.sum(axis=1)
        se = tr.std(ddof=1) / np.sqrt(tr.size)
        assert abs(tr.mean() - p.N) < 3 * se

    def test_spike_raises_trace(self):
        p = ModelParams(2, 4, 1.0)
        eigs = sample_wishart_all_eigs(McConfig(123, 40_000, p))
        tr = eigs.sum(axis=1)
        se = tr.std(ddof=1) / np.sqrt(tr.size)
        assert abs(tr.mean() - (p.N + p.tau)) < 3 * se

    def test_deterministic_stream(self):
        p = ModelParams(2, 4, 1.0)
        a = sample_wishart_max_eig(McConfig(7, 1000, p))
        b = sample_wishart_max_eig(McConfig(7, 1000, p))
        assert np.array_equal(a, b)
        c = sample_wishart_max_eig(McConfig(8, 1000, p))
        assert not np.array_equal(a, c)

    def test_empirical_cdf_matches_exact_null(self):
        # finite-N oracle: the direct Pfaffian CDF at tau = 0 (no asymptotics)
        p = ModelParams(4, 8, 0.0)
        lams = sample_wishart_max_eig(McConfig(99, 50_000, p))
        for z in (1.5, 2.2, 3.0):
            th = loe_direct_cdf(p, z)
            emp = float(np.mean(lams < z))
            se = np.sqrt(th * (1 - th) / lams.size)
            assert abs(th - emp) < 3 * se

    def test_validation(self):
        with pytest.raises(ConfigError):
            McConfig(0, 0, ModelParams(2, 4, 0.0))

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            McConfig(seed, 10, ModelParams(2, 4, 0.0))

    @pytest.mark.parametrize("n", [2.5, True, 3.0, "3", None, -1])
    def test_n_samples_must_be_positive_integer(self, n):
        with pytest.raises(ConfigError, match="n_samples"):
            McConfig(0, n, ModelParams(2, 4, 0.0))

    @pytest.mark.parametrize("seed", [0, np.int64(3), 2**70])
    def test_seed_accepts_non_negative_integers(self, seed):
        assert sample_wishart_max_eig(McConfig(seed, 3, ModelParams(2, 4, 0.0))).shape == (3,)


class TestBidiagonalModel:
    """The sampler's B B^T / M against the dense X X^T / M it stands for."""

    @pytest.mark.parametrize("N", [2, 8, 16])
    def test_gram_is_the_explicit_bidiagonal_product(self, N):
        M = 4 * N
        df = np.r_[np.arange(M, M - N, -1), np.arange(N - 1, 0, -1)]
        c = np.sqrt(np.random.default_rng(N).chisquare(df, size=(50, df.size)) / M)
        B = np.zeros((50, N, N))
        k = np.arange(N)
        B[:, k, k] = c[:, :N]
        B[:, k[1:], k[:-1]] = c[:, N:]
        T = sampling._bidiagonal_gram(c)
        assert not np.any(np.triu(T, 1))
        np.testing.assert_allclose(T, np.tril(B @ np.swapaxes(B, 1, 2)), rtol=1e-14, atol=0)
        sv2 = np.sort(np.linalg.svd(B, compute_uv=False) ** 2, axis=1)
        np.testing.assert_allclose(np.linalg.eigvalsh(T), sv2, rtol=1e-12, atol=0)

    def test_stream_does_not_depend_on_chunk_size(self, monkeypatch):
        cfg = McConfig(5, 1000, ModelParams(4, 8, 1.0))
        ref = sample_wishart_all_eigs(cfg)
        monkeypatch.setattr(sampling, "_CHUNK", 7)
        assert np.array_equal(sample_wishart_all_eigs(cfg), ref)

    def test_smallest_m_gives_positive_spectrum(self):
        # (2, 3): the last diagonal entry of B is chi_{M-N+1} = chi_2, never chi_0 = 0
        eigs = sample_wishart_all_eigs(McConfig(23, 20_000, ModelParams(2, 3, 0.0)))
        assert eigs.min() > 0.0

    @pytest.mark.parametrize("N,M,tau,n,seed", [
        (4, 8, 1.0, 40_000, 41),
        (8, 32, 1.0, 20_000, 83),
        (16, 64, 0.0, 10_000, 160),
        (16, 64, 1.5, 10_000, 161),
    ])
    def test_agrees_with_dense_oracle(self, N, M, tau, n, seed):
        p = ModelParams(N, M, tau)
        fast = sample_wishart_all_eigs(McConfig(seed, n, p))
        dense = dense_all_eigs(McConfig(seed + 1000, n, p))
        # two-sample KS on lambda_max at alpha = 1e-3 (asymptotic critical value)
        crit = np.sqrt(-0.5 * np.log(1e-3 / 2)) * np.sqrt(2.0 / n)
        assert ks_two_sample(fast[:, -1], dense[:, -1]) < crit
        for stat in (np.sum, np.max):
            d_mean, d_var = moment_sigmas(stat(fast, axis=1), stat(dense, axis=1))
            assert d_mean < 4.0 and d_var < 4.0


class TestLaguerreMaxEig:
    """sample_wishart_max_eig's Laguerre iteration against eigvalsh on the same chi variates."""

    @pytest.mark.parametrize("N,M,tau", [
        (2, 3, 0.0), (2, 4, 1.0), (4, 8, 1.0), (8, 32, 1.0), (8, 32, 3.0), (16, 64, 1.5),
    ])
    def test_matches_eigvalsh_on_the_same_stream(self, N, M, tau):
        cfg = McConfig(N + M, 5_000, ModelParams(N, M, tau))
        np.testing.assert_allclose(sample_wishart_max_eig(cfg),
                                   sample_wishart_all_eigs(cfg)[:, -1], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("N", [1, 3])
    def test_odd_sizes_and_exact_roots(self, N):
        # ModelParams refuses odd N, so the solver is driven directly; at
        # N = 1 the first step lands on the root and the next one is not finite
        M = 4
        df = np.r_[np.arange(M, M - N, -1), np.arange(N - 1, 0, -1)]
        c = np.sqrt(np.random.default_rng(N).chisquare(df, size=(2_000, df.size)) / M)
        c[:, 0] *= np.sqrt(2.0)
        np.testing.assert_allclose(sampling._bidiagonal_max_eig(c),
                                   np.linalg.eigvalsh(sampling._bidiagonal_gram(c))[:, -1],
                                   rtol=1e-13, atol=0)

    def test_stream_does_not_depend_on_chunk_size(self, monkeypatch):
        cfg = McConfig(5, 1000, ModelParams(8, 32, 1.0))
        ref = sample_wishart_max_eig(cfg)
        monkeypatch.setattr(sampling, "_CHUNK", 7)
        assert np.array_equal(sample_wishart_max_eig(cfg), ref)

    def test_draw_memory_is_bounded_by_the_chunk_bytes(self):
        # tracemalloc peak of 10^4 draws at (16, 64): chunks of at most _CHUNK bytes per
        # array, divided and rooted in place, the squared transpose freed once d and f
        # exist (3.22 MB); 20,000-row chunks holding 3.5 copies of the variates read 8.72 MB
        cfg = McConfig(1, 10_000, ModelParams(16, 64, 1.0))
        sample_wishart_max_eig(McConfig(1, 10, cfg.params))
        tracemalloc.start()
        try:
            sample_wishart_max_eig(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6

    def test_makes_no_eigvalsh_call(self, monkeypatch):
        def refuse(a):
            raise AssertionError(f"eigvalsh called on shape {a.shape}")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert sample_wishart_max_eig(McConfig(1, 100, ModelParams(4, 8, 1.0))).shape == (100,)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sampling, "_LAGUERRE_STEPS", 1)
        with pytest.raises(FloatingPointError, match="unconverged after 1 steps"):
            sample_wishart_max_eig(McConfig(1, 100, ModelParams(4, 8, 1.0)))


class TestHaarSamplers:
    def test_orthogonality_and_column_moments(self):
        rng = np.random.default_rng(2)
        n = 4
        g = haar_orthogonal(rng, n, 20_000)
        eye_dev = np.einsum("kij,klj->kil", g, g) - np.eye(n)
        assert np.max(np.abs(eye_dev)) < 1e-12
        col2 = g[:, :, -1] ** 2
        se = col2.std(ddof=1) / np.sqrt(col2.shape[0])
        assert np.all(np.abs(col2.mean(axis=0) - 1.0 / n) < 3 * se.max())

    def test_unitary(self):
        rng = np.random.default_rng(3)
        n = 3
        g = haar_unitary(rng, n, 5_000)
        eye_dev = np.einsum("kij,klj->kil", g, g.conj()) - np.eye(n)
        assert np.max(np.abs(eye_dev)) < 1e-12
        col2 = np.abs(g[:, :, -1]) ** 2
        se = col2.std(ddof=1) / np.sqrt(col2.shape[0])
        assert np.all(np.abs(col2.mean(axis=0) - 1.0 / n) < 3 * se.max())


class TestSphereOracle:
    def test_tau_zero_is_prefactor_exactly(self):
        p = ModelParams(4, 8, 0.0)
        lam = [0.5, 1.0, 1.5, 3.0]
        mean, se = sphere_integral_oracle(McConfig(1, 100, p), lam)
        assert se == 0.0
        assert mean == pytest.approx(np.exp(-0.5 * p.M * sum(lam)), rel=1e-12)

    def test_equal_eigenvalues_have_zero_variance(self):
        p = ModelParams(4, 8, 1.0)
        lam = [1.2] * 4
        mean, se = sphere_integral_oracle(McConfig(1, 500, p), lam)
        assert se < 1e-12 * mean
        expect = np.exp(-0.5 * p.M * 4 * 1.2) * np.exp(p.M * p.tau_tilde * 1.2)
        assert mean == pytest.approx(expect, rel=1e-12)

    def test_ratio_against_contour(self):
        p = ModelParams(4, 8, 1.0)
        l1 = [0.5, 1.0, 1.5, 3.0]
        l2 = [0.3, 0.8, 2.0, 2.5]
        contour = make_contour(3.0 * p.tau_tilde + 0.3, node_count=64, margin=0.4)
        r_ct = contour_integral_I(p, l1, contour) / contour_integral_I(p, l2, contour)
        m1, s1 = sphere_integral_oracle(McConfig(11, 100_000, p), l1)
        m2, s2 = sphere_integral_oracle(McConfig(12, 100_000, p), l2)
        r_mc = m1 / m2
        se = abs(r_mc) * np.sqrt((s1 / m1) ** 2 + (s2 / m2) ** 2)
        assert abs(r_ct.real - r_mc) < 3 * se
        assert abs(r_ct.imag) < 1e-12


class TestContourIntegralI:
    def test_equal_lambda_residue(self):
        # N = 2 coincident eigenvalues: integrand e^{Mt}/(t - tt a), a simple pole
        p = ModelParams(2, 4, 1.0)
        a = 1.3
        contour = make_contour(2.0 * p.tau_tilde * a, node_count=64, margin=0.4)
        val = contour_integral_I(p, [a, a], contour)
        expect = np.exp(-0.5 * p.M * 2 * a) * np.exp(p.M * p.tau_tilde * a)
        assert val == pytest.approx(expect, rel=1e-8)

    def test_radius_invariance(self):
        p = ModelParams(4, 8, 1.0)
        lam = [0.5, 1.0, 1.5, 3.0]
        c1 = make_contour(3.0 * p.tau_tilde + 0.3, node_count=96, margin=0.4)
        c2 = make_contour(3.0 * p.tau_tilde + 0.3, node_count=96, margin=1.1)
        v1 = contour_integral_I(p, lam, c1)
        v2 = contour_integral_I(p, lam, c2)
        assert v1 == pytest.approx(v2, rel=1e-8)

    def test_enclosure_check(self):
        p = ModelParams(4, 8, 1.0)
        contour = make_contour(0.1, node_count=16, margin=0.01)
        with pytest.raises(ConfigError):
            contour_integral_I(p, [10.0, 11.0, 12.0, 13.0], contour)


class TestOracleInputs:
    """The group-integral oracles check their eigenvalues and y (`zonal._checked`): a NaN gave
    (nan, nan), an inf eigenvalue a RuntimeWarning and an empty list a ZeroDivisionError."""

    P = ModelParams(2, 4, 1.0)

    @pytest.mark.parametrize("lam", [[0.5, np.nan], [np.inf, 1.0], [-np.inf, 1.0]])
    def test_sphere_oracle_refuses_non_finite_eigenvalues(self, lam):
        with pytest.raises(ConfigError, match="finite"):
            sphere_integral_oracle(McConfig(1, 100, self.P), lam)

    @pytest.mark.parametrize("integral", [haar_orthogonal_integral, haar_unitary_integral])
    @pytest.mark.parametrize("x, y, M", [([0.2, np.nan], 0.3, None), ([np.inf, 0.5], 0.3, None),
                                         ([0.2, 0.5], np.nan, None), ([0.2, 0.5], np.inf, None),
                                         ([0.2, 0.5], 0.3, 0), ([], 0.3, None), ([[0.2, 0.5]], 0.3, None)])
    def test_haar_integrals_refuse_bad_input(self, integral, x, y, M):
        with pytest.raises(ConfigError, match="x_eigs|y must|M must|at least one eigenvalue"):
            integral(McConfig(4, 100, self.P), x, y, M)


class TestHaarIntegral:
    def test_y_zero_is_one(self):
        p = ModelParams(2, 4, 0.0)
        mean, se = haar_orthogonal_integral(McConfig(4, 200, p), [0.2, 0.5], 0.0)
        assert mean == 1.0 and se == 0.0

    def test_identity_argument_is_constant(self):
        p = ModelParams(2, 4, 0.0)
        c = 0.7
        mean, se = haar_orthogonal_integral(McConfig(4, 500, p), [c, c, c], 0.3, M=2)
        assert se < 1e-12
        assert mean == pytest.approx(np.exp(-2 * 0.3 * c), rel=1e-12)
