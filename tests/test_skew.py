import functools
import warnings

import numpy as np
import pytest

from wishart_lab import (CdfEngine, ConfigError, DegenerateSkewProductError, EpsilonTransform, HalfLineRule,
                         KernelBundle, ModelParams, QuadratureError, SkewProductTable, build_basis,
                         build_skew_polys, cd_kernel_k2, truncated_moment_matrix,
                         h_poly, inner_product_2, moment_matrix, pfaffian, skew_product,
                         weight_w)
from wishart_lab.laguerre import LaguerreBasis
from wishart_lab.quadrature import half_line_rule
from wishart_lab.skew import _eliminate, _swap, _weighted_laguerre, default_xmax, rule_for_t


@pytest.fixture(scope="module")
def p48():
    return ModelParams(4, 8, 1.0)


@pytest.fixture(scope="module")
def table(p48):
    return SkewProductTable.build(p48, 2 + 1j)


@pytest.mark.parametrize("kmax", [-1, 0, 2.5, True, "3"])
def test_kmax_must_be_an_integer_of_at_least_1(p48, kmax):
    # -1 was a raw ValueError, 2.5 a raw TypeError
    with pytest.raises(ConfigError, match="kmax must be"):
        SkewProductTable.build(p48, 2 + 1j, kmax=kmax)


def test_the_sampler_evaluates_only_the_degrees_it_returns(p48, monkeypatch):
    # L_0 .. L_kmax, not L_0 .. L_{N+2}: each row bitwise that of the full evaluation; an engine's
    # table and passes take N rows, 4 at N = 4 where they took 7
    uptos, ev = [], LaguerreBasis.eval_all
    monkeypatch.setattr(LaguerreBasis, "eval_all", lambda self, x, upto=None: uptos.append(upto) or ev(self, x, upto))
    x = rule_for_t(p48, 2 + 1j).x
    got = _weighted_laguerre(p48, 2 + 1j, x, p48.N - 1)
    want = build_basis(p48).eval_all(x) * weight_w(p48, 2 + 1j, x)
    assert uptos[0] == p48.N - 1 and np.array_equal(got, want[:p48.N])
    uptos.clear()
    CdfEngine(p48).cdf_grid([2.0, 3.0])
    assert set(uptos) == {p48.N - 1}


class TestSkewProduct:
    def test_self_product_vanishes(self, p48):
        f = np.array([0.3, -1.0, 2.0])
        assert skew_product(p48, f, f, 2 + 1j) == 0.0

    def test_structural_zero_even_odd(self, table):
        # <L_2k, L_2k-1>_1 = 0 for even top index
        for k in (1, 2):
            assert abs(table.entries[2 * k, 2 * k - 1]) < 1e-12 * table.scale

    def test_against_double_quadrature_oracle(self):
        """Oracle: direct 2-D quadrature with the ordering made explicit,
        <1, x>_1 = (1/2) int_0^inf int_0^x (y - x) w(x) w(y) dy dx,
        inner integrals on fresh Gauss sub-rules (no epsilon machinery)."""
        p = ModelParams(2, 4, 0.0)
        t = 1.0
        val = skew_product(p, [1.0], [0.0, 1.0], t)   # <1, x>_1
        xmax = default_xmax(p)
        gx, gw = np.polynomial.legendre.leggauss(48)
        outer_x, outer_w = [], []
        edges = np.linspace(0.0, np.sqrt(xmax), 33)   # u^2 map for x^(1/2)
        for lo, hi in zip(edges[:-1], edges[1:]):
            s, m = 0.5 * (hi - lo), 0.5 * (hi + lo)
            u = m + s * gx
            outer_x.append(u * u)
            outer_w.append(2.0 * u * s * gw)
        outer_x = np.concatenate(outer_x)
        outer_w = np.concatenate(outer_w)
        brute = 0.0
        for x0, w0 in zip(outer_x, outer_w):
            v = np.sqrt(x0) * 0.5 * (gx + 1.0)        # y = v^2 on (0, x0)
            y = v * v
            jac = np.sqrt(x0) * gw * v                 # dy = 2 v dv, dv = sqrt(x0)/2 dgx
            inner = np.sum(jac * (y - x0) * weight_w(p, t, y))
            brute += 0.5 * w0 * weight_w(p, t, x0) * inner
        assert val == pytest.approx(brute, rel=1e-8)

    def test_antisymmetry_of_table(self, table):
        assert np.max(np.abs(table.entries + table.entries.T)) == 0.0

    def test_conjugation_symmetry(self, p48):
        t_up = SkewProductTable.build(p48, 1.5 + 0.8j)
        t_dn = SkewProductTable.build(p48, 1.5 - 0.8j)
        assert np.allclose(t_dn.entries, np.conj(t_up.entries), rtol=1e-12)

    def test_truncated_product(self, p48):
        full = skew_product(p48, [1.0], [0.0, 1.0], 2 + 1j)
        trunc = skew_product(p48, [1.0], [0.0, 1.0], 2 + 1j, z=2.0)
        assert trunc != pytest.approx(full, rel=1e-3)
        nearly = skew_product(p48, [1.0], [0.0, 1.0], 2 + 1j, z=default_xmax(p48))
        assert nearly == pytest.approx(full, rel=1e-12)


class TestInnerProduct2:
    def test_orthogonality_norms(self, p48):
        basis = build_basis(p48, 8)
        for j, k in ((0, 0), (2, 2), (1, 3), (3, 5)):
            val = inner_product_2(p48, basis.coeffs(j), basis.coeffs(k))
            expect = basis.h(j) if j == k else 0.0
            assert val == pytest.approx(expect, abs=1e-10 * basis.h(max(j, k)))

    def test_shifted_moment(self, p48):
        # <x^{j+1}, L_j>_2 = (M - N + j + 1)(j + 1)/M * h_j
        basis = build_basis(p48, 8)
        for j in (0, 1, 3):
            mono = np.zeros(j + 2)
            mono[j + 1] = 1.0
            val = inner_product_2(p48, mono, basis.coeffs(j))
            expect = (p48.M - p48.N + j + 1) * (j + 1) / p48.M * basis.h(j)
            assert val == pytest.approx(expect, rel=1e-11)

    def test_zero(self, p48):
        assert inner_product_2(p48, [0.0], [1.0, 2.0]) == 0.0

    def test_a_non_finite_sample_is_a_quadrature_error(self, p48):
        # it returned nan+nanj
        x0 = half_line_rule(default_xmax(p48)).x[0]
        with pytest.raises(QuadratureError, match=f"node 0 \\(x={x0:.6g}\\)"):
            inner_product_2(p48, [np.nan], [1.0, 2.0])


class TestHPoly:
    def test_degree(self, p48):
        for j in range(5):
            c = h_poly(p48, j, 2 + 1j)
            assert len(c) == j + 3 and c[-1] != 0

    def test_parts_identity(self, p48):
        basis = build_basis(p48, 8)
        t = 2 + 1j
        scale = basis.h(0)
        for i in (0, 2, 5):
            fc = basis.coeffs(i)
            for j in (0, 2, 4):
                xj = np.zeros(j + 1)
                xj[j] = 1.0
                lhs = skew_product(p48, fc, h_poly(p48, j, t), t)
                rhs = inner_product_2(p48, fc, xj)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11 * scale)

    def test_tau_zero_reduction(self):
        # independent expansion: H_j = t [ (j+1) x^j - (M/2) x^{j+1}
        #                                 + (M-N-1)/2 x^j ] at tau = 0
        p = ModelParams(4, 8, 0.0)
        t = 1.7
        for j in (0, 1, 3):
            oracle = np.zeros(j + 3, dtype=complex)
            oracle[j] = t * ((j + 1) + 0.5 * (p.M - p.N - 1))
            oracle[j + 1] = -t * 0.5 * p.M
            assert np.allclose(h_poly(p, j, t), oracle, atol=1e-14)

    def test_requires_positive_alpha(self):
        with pytest.raises(ConfigError):
            h_poly(ModelParams(4, 8, 1.0), -1, 1.0)


class TestSkewPolys:
    def test_sop_conditions(self, p48, table):
        basis = table.basis
        polys = build_skew_polys(table)
        for d in (p48.N, p48.N + 1):
            cm = np.zeros(d + 1, dtype=complex)
            for k, c in enumerate(polys.coeffs[d]):
                cc = basis.coeffs(k)
                cm[: len(cc)] += c * cc
            assert cm[d] == pytest.approx(1.0)   # monic
            for j in range(p48.N):
                xj = np.zeros(j + 1)
                xj[j] = 1.0
                val = skew_product(p48, cm, xj, table.t)
                assert abs(val) < 1e-7 * table.scale

    def test_even_member_has_no_second_term(self, table):
        polys = build_skew_polys(table)
        N = table.params.N
        assert polys.coeffs[N][N - 2] == 0.0
        # and the eliminated coefficient really is a structural zero:
        g = table.entries
        gamma22 = g[N, N - 1] / g[N - 2, N - 1]
        assert abs(gamma22) < 1e-10

    def test_uniqueness_up_to_multiple(self, p48, table):
        # pi_{2k+1} + alpha pi_{2k} still satisfies every (sop) condition
        basis = table.basis
        polys = build_skew_polys(table)
        rng = np.random.default_rng(5)
        alpha = complex(*rng.normal(size=2))
        N = p48.N
        mixed = np.zeros(N + 2, dtype=complex)
        mixed[: N + 1] += alpha * np.pad(polys.coeffs[N], (0, 1))[: N + 1]
        mixed[: N + 2] += np.pad(polys.coeffs[N + 1], (0, 0))
        cm = np.zeros(N + 2, dtype=complex)
        for k, c in enumerate(mixed):
            cc = basis.coeffs(k)
            cm[: len(cc)] += c * cc
        for j in range(N):
            xj = np.zeros(j + 1)
            xj[j] = 1.0
            assert abs(skew_product(p48, cm, xj, table.t)) < 1e-7 * table.scale

    def test_h_skew_matches_block(self, table):
        polys = build_skew_polys(table)
        mm = moment_matrix(table, polys, basis_kind="pi")
        assert mm.entries[-2, -1] == pytest.approx(polys.h_skew, rel=1e-12)

    def test_degenerate_pivot_raises(self, table):
        import copy
        broken = copy.copy(table)
        broken.entries = table.entries.copy()
        broken.entries[p_idx := 3, 2] = 0.0
        broken.entries[2, p_idx] = 0.0
        with pytest.raises(DegenerateSkewProductError):
            build_skew_polys(broken)


class TestMomentMatrix:
    def test_block_structure(self, p48, table):
        mm = moment_matrix(table, basis_kind="pi")
        E = mm.entries
        N = p48.N
        assert np.max(np.abs(E[: N - 2, N - 2:])) < 1e-12 * table.scale
        assert abs(E[N - 2, N - 2]) < 1e-16 * table.scale
        assert abs(E[N - 1, N - 1]) < 1e-16 * table.scale
        assert np.max(np.abs(E + E.T)) < 1e-15 * table.scale

    def test_pfaffian_invariant_under_monic_change(self, table):
        a = pfaffian(moment_matrix(table, basis_kind="laguerre").entries)
        b = pfaffian(moment_matrix(table, basis_kind="pi").entries)
        assert a == pytest.approx(b, rel=1e-10)

    def test_zero_truncation(self, p48):
        from wishart_lab import truncated_moment_matrix
        assert np.all(truncated_moment_matrix(p48, 2 + 1j, 0.0) == 0.0)


def random_skew(rng, shape, n):
    """Complex antisymmetric stack whose (1, 0) entries are tiny, so the
    first elimination step must pivot in every member."""
    A = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    A[..., 0, 1] *= 1e-6                              # the upper entry: triu keeps it
    return np.triu(A, 1) - np.swapaxes(np.triu(A, 1), -1, -2)


def pf_expansion(A):
    """Oracle over a stack (..., n, n): the first-row expansion, memoised on the rows left, so
    n = 16 takes 1,597 sub-Pfaffians: Pf(S) = sum_k (-1)^k a_ij Pf(S without i, j), i = min S and
    j the k-th other member of S."""
    @functools.cache
    def pf(rows):
        if not rows:
            return np.ones(A.shape[:-2], dtype=complex)
        i, rest = rows[0], rows[1:]
        return sum((-1) ** k * A[..., i, j] * pf(rest[:k] + rest[k + 1:]) for k, j in enumerate(rest))
    return pf(tuple(range(A.shape[-1])))


class TestPfaffian:
    def test_2x2(self):
        assert pfaffian(np.array([[0.0, 2.5], [-2.5, 0.0]])) == 2.5 + 0j

    def test_sign_convention(self):
        assert pfaffian(np.array([[0.0, 1.0], [-1.0, 0.0]])) == 1.0 + 0j

    def test_4x4_cofactor_formula(self):
        A = random_skew(np.random.default_rng(1), (5,), 4)
        expect = A[:, 0, 1] * A[:, 2, 3] - A[:, 0, 2] * A[:, 1, 3] + A[:, 0, 3] * A[:, 1, 2]
        assert np.allclose(pfaffian(A), expect, rtol=1e-12, atol=0)
        assert pfaffian(A[3]) == pytest.approx(expect[3], rel=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8, 2, 10, 12, 14, 16])
    def test_square_is_determinant(self, n):
        A = random_skew(np.random.default_rng(n), (7,), n)
        assert np.allclose(pfaffian(A) ** 2, np.linalg.det(A), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_first_row_expansion(self, n):
        A = random_skew(np.random.default_rng(10 + n), (3,), n)
        assert np.allclose(pfaffian(A), pf_expansion(A), rtol=1e-10, atol=0)

    def test_congruence_scaling(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(6, 6))
        A = A - A.T
        B = rng.normal(size=(6, 6))
        assert pfaffian(B @ A @ B.T) == pytest.approx(
            np.linalg.det(B) * pfaffian(A), rel=1e-9)

    def test_guards(self):
        with pytest.raises(ConfigError):
            pfaffian(np.zeros((3, 3)))
        with pytest.raises(ConfigError):
            pfaffian(np.zeros((2, 4, 6)))
        with pytest.raises(ConfigError):
            pfaffian(np.eye(4))
        A = random_skew(np.random.default_rng(7), (4,), 4)
        A[2, 0, 1] += 1.0                             # one member of the stack
        with pytest.raises(ConfigError):
            pfaffian(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
    def test_a_non_finite_entry_is_refused(self, bad):
        # NaN fails every comparison, so it slipped through the antisymmetry check and
        # came back as nan+nanj with a divide warning; +-inf did the same
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="non-finite"):
                pfaffian(np.full((4, 4), bad))
            A = random_skew(np.random.default_rng(3), (3,), 4)
            A[1, 0, 2], A[1, 2, 0] = bad, -bad             # one member of the stack
            with pytest.raises(ConfigError, match="non-finite"):
                pfaffian(A)

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_packed_entries_give_the_pfaffian_of_the_unpacked_matrices(self, n):
        # the CDF engine's pass hands its strict upper triangles, lanes last, straight to the
        # elimination, which overwrites them: bitwise `pfaffian` of the matrices, on a stack that
        # mixes members whose first pivot must move, members whose pivots stay, and a zero matrix
        rng = np.random.default_rng(20 + n)
        moved = random_skew(rng, (2,), n)
        still = 1e-3 * random_skew(rng, (2,), n)
        for j in range(0, n, 2):                              # a dominant (j + 1, j) entry per pair
            still[:, j, j + 1], still[:, j + 1, j] = 5.0 + j, -5.0 - j
        A = np.concatenate((moved[:1], still[:1], np.zeros((1, n, n)), moved[1:], still[1:]))
        first = 1 + np.abs(A[:, 1:, 0]).argmax(-1)
        assert (first[[0, 3]] != 1).all() or n == 2
        assert (first[[1, 4]] == 1).all()
        a, c = np.triu_indices(n, 1)
        W = np.ascontiguousarray(A[:, a, c].T)
        assert W.shape == (n * (n - 1) // 2, len(A))
        before = W.copy()
        got = _eliminate(W)
        assert not np.array_equal(W, before) or n == 2       # overwritten in place
        assert np.array_equal(got, pfaffian(A)) and got[2] == 0.0
        assert np.array_equal(got, [pfaffian(m) for m in A])

    @pytest.mark.parametrize("n", [0, 2, 4, 6, 16])
    def test_packed_elimination_matches_the_first_row_expansion(self, n):
        # one stack of lanes that do not pivot, lanes whose first pivot moves to two different
        # rows in the same step, and lanes whose working column is zero at step 1 and at step 2,
        # each against the first-row expansion; a zero column gives exactly 0
        rng = np.random.default_rng(40 + n)
        still = 1e-2 * random_skew(rng, (2,), n) if n else np.zeros((2, 0, 0), dtype=complex)
        for j in range(0, n, 2):
            still[:, j, j + 1], still[:, j + 1, j] = 3.0 + j, -3.0 - j
        lanes, rows = [still[0], still[1]], [1, 1]
        for p in ((2, n - 1) if n >= 4 else ()):              # two pivot rows in one step
            m = random_skew(rng, (), n)
            m[0, p], m[p, 0] = 10.0, -10.0
            lanes.append(m)
            rows.append(p)
        dead = []
        if n >= 2:
            m = random_skew(rng, (), n)
            m[0, :], m[:, 0] = 0.0, 0.0                       # zero column at step 1
            lanes.append(m)
            dead.append(len(lanes) - 1)
        if n >= 4:
            m = random_skew(rng, (), n)
            m[:2, 2:], m[2:, :2] = 0.0, 0.0                   # step 1 leaves the rest alone,
            m[2, 3:], m[3:, 2] = 0.0, 0.0                     # so column 2 is zero at step 2
            lanes.append(m)
            dead.append(len(lanes) - 1)
        A = np.array(lanes)
        assert n == 0 or [1 + int(np.abs(m[1:, 0]).argmax()) for m in A[:len(rows)]] == rows
        a, c = np.triu_indices(n, 1)
        got = _eliminate(np.ascontiguousarray(A[:, a, c].T))
        want = pf_expansion(A)
        assert got.shape == (len(A),) and all(got[dead] == 0.0) and all(want[dead] == 0.0)
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [4, 6, 16])
    def test_packed_swap_is_the_swap_of_the_matrix(self, m):
        # the cached gather and signs swap rows and columns 1 and p of the packed triangle
        a, c = np.triu_indices(m, 1)
        A = random_skew(np.random.default_rng(m), (), m)
        for p in range(2, m):
            perm, sign = _swap(m, p)
            S = A.copy()
            S[[1, p]] = S[[p, 1]]
            S[:, [1, p]] = S[:, [p, 1]]
            assert np.array_equal(sign * A[a, c][perm], S[a, c])
            assert _swap(m, p)[0] is perm and not perm.flags.writeable

    def test_singular(self):
        A = np.zeros((4, 4))
        A[0, 1], A[1, 0] = 1.0, -1.0
        assert pfaffian(A) == 0.0

    def test_dead_member_leaves_neighbours_alone(self):
        rng = np.random.default_rng(4)
        regular = random_skew(rng, (2,), 6)
        first = random_skew(rng, (), 6)
        first[0, :], first[:, 0] = 0.0, 0.0          # zero working column at step 1,
        first[0, 1:] = 1e-13                          # its row only antisymmetric to tolerance
        later = np.zeros((6, 6), dtype=complex)
        later[:2, :2] = [[0.0, 2.0], [-2.0, 0.0]]     # zero working column at step 2
        later[4:, 4:] = [[0.0, 3.0], [-3.0, 0.0]]
        got = pfaffian(np.stack([regular[0], first, regular[1], later]))
        assert got[1] == 0.0 and got[3] == 0.0
        assert got[0] == pfaffian(regular[0]) and got[2] == pfaffian(regular[1])

    def test_zero_pivot_raises_no_warning(self):
        A = np.zeros((3, 4, 4))
        A[1, 2, 3], A[1, 3, 2] = 1.0, -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(pfaffian(A) == 0.0)

    def test_shapes(self):
        A = random_skew(np.random.default_rng(6), (2, 3), 4)
        got = pfaffian(A)
        assert got.shape == (2, 3)
        assert got[1, 2] == pfaffian(A[1, 2])
        assert type(pfaffian(A[0, 0])) is complex
        assert pfaffian(np.zeros((2, 0, 0))).tolist() == [1.0, 1.0]


class TestSkewGram:
    def test_truncation_is_exact_and_depends_on_z_alone(self, p48):
        # unsorted and repeated z, z <= 0 (empty), z past xmax, z on
        # panel edges, inside panels, on a node, and just inside both ends of a
        # plain panel and of a refinement-ladder panel
        t = 2 + 1j
        basis = build_basis(p48)

        def phi_on(rule):
            return basis.eval_all(rule.x)[:5] * weight_w(p48, t, rule.x)

        rule = rule_for_t(p48, t)
        phi = phi_on(rule)
        eps = EpsilonTransform(rule, phi)
        F = eps.cumulative
        edges = rule.u_edges ** 2
        zs = [edges[20], edges[7], -1.0, 0.0, edges[20], 3.3, default_xmax(p48), 1e3, edges[7],
              0.77, rule.x[37]]
        width = np.diff(rule.u_edges)
        assert np.isclose(width[8], width.max()) and width[22] < width.max() / 2    # plain, ladder
        for lo, hi in (rule.u_edges[8:10], rule.u_edges[22:24]):
            zs += [np.nextafter(lo ** 2, np.inf), (lo + 1e-9 * (hi - lo)) ** 2,
                   (hi - 1e-9 * (hi - lo)) ** 2, np.nextafter(hi ** 2, 0.0)]
        got = eps.truncated_gram(zs)
        assert got.shape == (len(zs), 5, 5)
        for z, g in zip(zs, got):
            if z in edges or not 0 < z < default_xmax(p48):
                # a panel edge: the masked sum (phi [x < z] w) @ F^T of the rule's nodes
                raw = (phi * ((rule.x < z) * rule.w)) @ F.T
            else:
                # inside a panel: the full Gram of a fine rule on [0, z] itself
                fine = half_line_rule(z, n_panels=96)
                f = phi_on(fine)
                raw = (f * fine.w) @ EpsilonTransform(fine, f).cumulative.T
            want = 0.5 * (raw - raw.T)
            assert np.max(np.abs(g - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)
        assert np.all(got[[2, 3]] == 0.0)
        assert np.array_equal(got[0], got[4]) and np.array_equal(got[1], got[8])
        # each z's Gram is bitwise the same alone (scalar z) or beside other z
        for z, g in zip(zs, got):
            one = eps.truncated_gram(z)
            assert one.shape == (5, 5) and np.array_equal(one, g)
            assert np.array_equal(eps.truncated_gram([1.0, z])[1], g)


@pytest.mark.parametrize("call", ["truncated_gram", "truncated_moment_matrix", "SkewProductTable.build",
                                  "skew_product"])
def test_a_nan_z_is_a_config_error(p48, call):
    # a NaN z was read as an empty truncation, an all-zero Gram, where cum_at refused it
    t, z = 2 + 1j, [2.0, np.nan]
    run = {
        "truncated_gram": lambda: SkewProductTable.build(p48, t).eps.truncated_gram(z),
        "truncated_moment_matrix": lambda: truncated_moment_matrix(p48, t, np.nan),
        "SkewProductTable.build": lambda: SkewProductTable.build(p48, t, z=z),
        "skew_product": lambda: skew_product(p48, [1.0], [0.0, 1.0], t, z=np.nan),
    }[call]
    with pytest.raises(ConfigError, match="a quadrature point is NaN"):
        run()


@pytest.mark.parametrize("t", [np.nan, np.inf, complex(np.nan, 1.0), complex(1.0, -np.inf)])
@pytest.mark.parametrize("call", ["weight_w", "rule_for_t", "skew_product", "truncated_moment_matrix",
                                  "KernelBundle.build", "stacked KernelBundle.build", "cd_kernel_k2"])
def test_a_non_finite_t_is_a_config_error(p48, call, t):
    # rule_for_t(p, nan) returned a plain rule, weight_w(p, inf, x) zeros (so skew_product 0j),
    # truncated_moment_matrix NaN entries, and KernelBundle.build a raw LinAlgError
    stack = HalfLineRule.stack(default_xmax(p48), [rule_for_t(p48, 2 + 1j).u_edges] * 2, 16)
    run = {
        "weight_w": lambda: weight_w(p48, t, [1.0, 2.0]),
        "rule_for_t": lambda: rule_for_t(p48, t),
        "skew_product": lambda: skew_product(p48, [1.0], [0.0, 1.0], t),
        "truncated_moment_matrix": lambda: truncated_moment_matrix(p48, t, 2.0),
        "KernelBundle.build": lambda: KernelBundle.build(p48, t),
        "stacked KernelBundle.build": lambda: KernelBundle.build(p48, np.array([2 + 1j, t]), rule=stack),
        "cd_kernel_k2": lambda: cd_kernel_k2(build_basis(p48), t, 1.0, 2.0),
    }[call]
    with pytest.raises(ConfigError, match="finite t"):
        run()


class TestDeBruijn:
    def test_constant_across_t_and_z(self, p48):
        """The ordered double integral over [0, z]^2 equals a (t, z)-independent
        constant times the Pfaffian of the 2x2 truncated moment matrix."""
        p = ModelParams(2, 4, 1.0)
        consts = []
        for t, z in ((2 + 1j, 2.0), (1 + 2j, 3.0), (1.5 - 0.6j, 4.5)):
            rule = half_line_rule(z, n_panels=32, q=16)
            wv = weight_w(p, t, rule.x)
            # ordered integral: int dy w(y) int_0^y (y - x) w(x) dx
            F = rule.cumulative(wv)
            G = rule.cumulative(rule.x * wv)
            ordered = np.sum(rule.w * wv * (rule.x * F - G))
            tab = SkewProductTable.build(p, t, kmax=1, z=z)
            consts.append(ordered / pfaffian(tab.entries))
        assert consts[0] == pytest.approx(consts[1], rel=1e-10)
        assert consts[0] == pytest.approx(consts[2], rel=1e-10)
        # with the 1/2 sgn kernel the constant is exactly -2
        assert consts[0] == pytest.approx(-2.0, rel=1e-10)
