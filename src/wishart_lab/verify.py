"""Named verification suites behind both the CLI and the acceptance tests.

Each suite returns {"suite", "passed", "checks": [{name, value, tol,
passed}], "elapsed_s"} with `value` the measured deviation (relative error,
sigma count, ...) and `tol` the pinned acceptance bound.  Structural zeros
are always measured against the scale of the surrounding table, never
against themselves.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .cdf import CdfEngine, loe_direct_cdf, logdet_m_derivative
from .kernels import CdCorrectedKernel, KernelBundle
from .laguerre import build_basis
from .params import ModelParams, make_contour, mp_density, mp_edges
from .quadrature import finite_rule
from .sampling import (McConfig, contour_integral_I, haar_orthogonal_integral,
                       haar_unitary_integral, sample_wishart_all_eigs,
                       sample_wishart_max_eig, sphere_integral_oracle)
from .skew import SkewProductTable, build_skew_polys, h_poly, inner_product_2, pfaffian, skew_product
from .zonal import (zonal_I_closed_form, zonal_identity_check, zonal_row,
                    unitary_symplectic_identity_check)

__all__ = ["SUITES", "run_suite", "run_all"]


def _check(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": float(value), "tol": float(tol),
            "passed": bool(value < tol)}


def _wrap(suite: str, checks: list, t0: float) -> dict:
    return {"suite": suite, "passed": all(c["passed"] for c in checks),
            "checks": checks, "elapsed_s": time.time() - t0}


def suite_parts_identity(seed: int = 0) -> dict:
    """<f, H_j>_1 = <f, x^j>_2 for f = L_0..L_5, j = 0..4."""
    t0 = time.time()
    checks = []
    for tau in (0.3, 1.0):
        p = ModelParams(4, 8, tau)
        basis = build_basis(p, 8)
        for t in (2 + 1j, 1 + 2j):
            pairs = []
            for i in range(6):
                fc = basis.coeffs(i)
                for j in range(5):
                    pairs.append((skew_product(p, fc, h_poly(p, j, t), t),
                                  inner_product_2(p, fc, np.eye(j + 1)[j])))
            scale = max(abs(r) for _, r in pairs)
            worst = max(abs(l - r) / (abs(r) if abs(r) > 1e-10 * scale else scale)
                        for l, r in pairs)
            checks.append(_check(f"tau={tau} t={t}", worst, 1e-8))
    return _wrap("parts-identity", checks, t0)


def suite_skew_op(seed: int = 0) -> dict:
    """Skew-orthogonality of the constructed pi's plus the structural zeros."""
    t0 = time.time()
    checks = []
    p = ModelParams(4, 8, 1.0)
    basis = build_basis(p, 8)
    for t in (2 + 1j, 1 + 2j):
        table = SkewProductTable.build(p, t)
        scale = table.scale
        polys = build_skew_polys(table)
        # pi_N and pi_{N+1} in the monomial basis
        mono = {d: sum(c * np.pad(basis.coeffs(k), (0, d - k)) for k, c in enumerate(polys.coeffs[d]))
                for d in (p.N, p.N + 1)}
        # <pi_{d,1}, y^j>_1 = 0 for j <= d - 2  (covers both members of each pair)
        worst = max(abs(skew_product(p, cm, np.eye(j + 1)[j], t)) / scale
                    for cm in mono.values() for j in range(p.N))
        checks.append(_check(f"sop conditions t={t}", worst, 1e-7))
        zero = max(abs(table.entries[2 * k, 2 * k - 1]) for k in (1, 2)) / scale
        checks.append(_check(f"<L_2k, L_2k-1> zero t={t}", zero, 1e-7))
        # solve the full even-degree elimination allowing an L_{2k-2} term;
        # its coefficient gamma_{2k,2} = -<L_2k, L_2k-1> / <L_2k-2, L_2k-1>
        # must vanish (this is what lets (p2N) drop that term)
        g = table.entries
        gamma = max(abs(g[2 * k, 2 * k - 1] / g[2 * k - 2, 2 * k - 1])
                    for k in (1, 2))
        checks.append(_check(f"gamma_2k,2 = 0 t={t}", gamma, 1e-7))
        # equivalent route: <pi_N, x^j>_2 = 0 for j <= N - 3
        w2 = max(abs(inner_product_2(p, mono[p.N], np.eye(j + 1)[j]))
                 for j in range(p.N - 2)) / basis.h(p.N - 2)
        checks.append(_check(f"<pi_N, x^j>_2 zero t={t}", w2, 1e-7))
    return _wrap("skew-op", checks, t0)


def suite_kernel_equiv(seed: int = 0) -> dict:
    """Brute-force S1 vs CD + rank-2 correction on grids (the structure theorem)."""
    t0 = time.time()
    checks = []
    xs = np.linspace(0.4, 6.0, 5)
    ys = np.linspace(0.3, 5.5, 5)
    ref_ratio = None
    for tau in (0.3, 1.0):
        p = ModelParams(4, 8, tau)
        for t in (2 + 1j, 1 + 2j, 0.8 + 0.9j):
            table = SkewProductTable.build(p, t)     # degree N + 1, which the correction reads
            kb, cd = KernelBundle.build(p, t, table=table), CdCorrectedKernel.build(p, t, table=table)
            sb = kb.s1(xs, ys)
            sc = cd.s1(xs, ys)
            if ref_ratio is None:
                # one-time global constant anchor; the conventions here make it 1
                i, j = np.unravel_index(np.argmax(np.abs(sb)), sb.shape)
                ref_ratio = sb[i, j] / sc[i, j]
                checks.append(_check("global anchor |ratio - 1|", abs(ref_ratio - 1.0), 1e-6))
            dev = np.max(np.abs(sb - ref_ratio * sc)) / np.max(np.abs(sb))
            checks.append(_check(f"tau={tau} t={t}", dev, 1e-6))
    return _wrap("kernel-equiv", checks, t0)


def suite_derpar(seed: int = 0) -> dict:
    """d/dt log det M against central finite differences of det M."""
    t0 = time.time()
    checks = []
    for tau, t in ((1.0, 2 + 1j), (0.3, 1 + 2j)):
        p = ModelParams(4, 8, tau)

        def detM(tv):
            tab = SkewProductTable.build(p, tv)
            return np.linalg.det(tab.entries[: p.N, : p.N])

        h = 1e-4 * abs(t)
        fd = (detM(t + h) - detM(t - h)) / (2.0 * h * detM(t))
        an = logdet_m_derivative(p, t)
        checks.append(_check(f"tau={tau} t={t}", abs(fd - an) / abs(fd), 1e-5))
    # tau -> 0 power law: log det M = -N log t + const
    p0 = ModelParams(4, 8, 0.0)
    an = logdet_m_derivative(p0, 2 + 1j)
    checks.append(_check("tau=0 power law", abs(an + p0.N / (2 + 1j)) / abs(an), 1e-10))
    return _wrap("derpar", checks, t0)


def suite_mc_cdf(seed: int = 20260811) -> dict:
    """Pfaffian-route CDF vs the empirical CDF of sampled largest eigenvalues."""
    t0 = time.time()
    checks = []
    p = ModelParams(2, 4, 1.0)
    cfg = McConfig(seed=seed, n_samples=100_000, params=p)
    lams = sample_wishart_max_eig(cfg)
    for r in CdfEngine(p).cdf_grid([2.0, 2.75, 3.5, 4.25, 5.0]):
        z, th = r.z, r.value
        emp = float(np.mean(lams < z))
        se = math.sqrt(th * (1.0 - th) / cfg.n_samples)
        checks.append(_check(f"z={z} (sigmas/3)", abs(th - emp) / (3.0 * se), 1.0))
    # tau = 0 reduction: the t-integral must collapse onto the direct path
    p0 = ModelParams(2, 4, 0.0)
    dev = max(abs(r.value - loe_direct_cdf(p0, r.z))
              for r in CdfEngine(p0).cdf_grid([1.0, 2.0, 3.0]))
    checks.append(_check("tau=0 route agreement", dev, 1e-6))
    return _wrap("mc-cdf", checks, t0)


def suite_route_equiv(seed: int = 0) -> dict:
    """Pfaffian vs Fredholm-determinant route at shared normalisation."""
    t0 = time.time()
    p = ModelParams(4, 8, 1.0)
    eng = CdfEngine(p)
    zs = [2.5, 3.5, 4.5]
    checks = [_check(f"z={z}", abs(a.value - b.value), 1e-3)
              for z, a, b in zip(zs, eng.cdf_grid(zs), eng.cdf_grid(zs, "fredholm"))]
    return _wrap("route-equiv", checks, t0)


def suite_zonal(seed: int = 5150) -> dict:
    t0 = time.time()
    checks = []
    worst = max(abs(zonal_row(np.ones(N), 6, "real")[k] - zonal_I_closed_form(N, k))
                / zonal_I_closed_form(N, k)
                for N in (2, 4, 6) for k in range(7))
    checks.append(_check("Z_(k)(I_N) closed form", worst, 1e-10))
    rep = zonal_identity_check(2, [0.1, 0.2, 0.3, 0.4], 0.5, max_k=50)
    checks.append(_check("O(N) contour vs series", rep["rel_dev"], 1e-8))
    checks.append(_check("series vs group-average proportionality",
                         rep["proportionality_dev"], 1e-10))
    pdummy = ModelParams(2, 4, 0.0)
    mean, se = haar_orthogonal_integral(McConfig(seed, 200_000, pdummy),
                                        [0.2, 0.5, 0.9], -0.3, M=1)
    rep3 = zonal_identity_check(1, [0.2, 0.5, 0.9], 0.3, max_k=40, mc=(mean, se))
    checks.append(_check("Haar O(3) MC (sigmas/3)", rep3["mc_sigmas"] / 3.0, 1.0))
    mcu = haar_unitary_integral(McConfig(seed + 1, 100_000, pdummy),
                                [0.3, 0.7], -0.4, M=1)
    rep_u = unitary_symplectic_identity_check(1, [0.3, 0.7], 0.4, max_k=50,
                                              mc_unitary=mcu)
    checks.append(_check("U(2) contour vs series", rep_u["unitary"]["rel_dev"], 1e-8))
    checks.append(_check("U(2) MC (sigmas/3)", rep_u["unitary"]["mc_sigmas"] / 3.0, 1.0))
    checks.append(_check("Sp contour vs series", rep_u["symplectic"]["rel_dev"], 1e-8))
    return _wrap("zonal", checks, t0)


def suite_sphere_oracle(seed: int = 11) -> dict:
    """Contour formula for the group integral vs the sphere MC, as ratios."""
    t0 = time.time()
    p = ModelParams(4, 8, 1.0)
    l1 = [0.5, 1.0, 1.5, 3.0]
    l2 = [0.3, 0.8, 2.0, 2.5]
    contour = make_contour(3.0 * p.tau_tilde + 0.3, node_count=64, margin=0.4)
    r_ct = contour_integral_I(p, l1, contour) / contour_integral_I(p, l2, contour)
    m1, s1 = sphere_integral_oracle(McConfig(seed, 100_000, p), l1)
    m2, s2 = sphere_integral_oracle(McConfig(seed + 1, 100_000, p), l2)
    r_mc = m1 / m2
    se = abs(r_mc) * math.sqrt((s1 / m1) ** 2 + (s2 / m2) ** 2)
    checks = [
        _check("ratio (sigmas/3)", abs(r_ct.real - r_mc) / (3.0 * se), 1.0),
        _check("imaginary residue", abs(r_ct.imag), 1e-10),
    ]
    return _wrap("sphere-oracle", checks, t0)


def suite_mp_density(seed: int = 7) -> dict:
    """Bulk histogram of 10^4 null-Wishart eigenvalues vs the limiting density.

    The comparison conditions on the bulk support (the limiting law says
    nothing about the finite-N mass that leaks past the edges) and uses
    multinomial errors per bin.
    """
    t0 = time.time()
    p = ModelParams(16, 64, 0.0)
    n_eigs = 10_000
    n_mat = (n_eigs + p.N - 1) // p.N
    eigs = sample_wishart_all_eigs(McConfig(seed, n_mat, p)).ravel()[:n_eigs]
    b_minus, b_plus = mp_edges(p.gamma)
    edges = np.linspace(b_minus, b_plus, 11)
    inside = eigs[(eigs > b_minus) & (eigs < b_plus)]
    counts, _ = np.histogram(inside, edges)
    probs = []
    for i in range(10):
        xs, ws = finite_rule(edges[i], edges[i + 1], 6, 16)
        probs.append(float(np.sum(ws * mp_density(p, xs))))
    probs = np.asarray(probs)
    probs /= probs.sum()
    n_in = inside.size
    devs = np.abs(counts - probs * n_in) / np.sqrt(n_in * probs * (1.0 - probs))
    checks = [_check(f"bin {i} (sigmas/3)", devs[i] / 3.0, 1.0) for i in range(10)]
    checks.append(_check("mass outside bulk", 1.0 - n_in / n_eigs, 0.05))
    return _wrap("mp-density", checks, t0)


def suite_hygiene(seed: int = 0) -> dict:
    """Discretisation-doubling stability, Pf^2 = det, conjugation symmetry."""
    t0 = time.time()
    p = ModelParams(4, 8, 1.0)
    checks = []
    base = CdfEngine(p)
    zs = [2.5, 3.5]
    vals = [r.value for r in base.cdf_grid(zs)]
    for name, eng in (("contour radius doubling", CdfEngine(p, radius_factor=2.0)),
                      ("quadrature doubling", CdfEngine(p, n_panels=48, q=20))):
        dev = max(abs(r.value - v) for r, v in zip(eng.cdf_grid(zs), vals))
        checks.append(_check(name, dev, 1e-4))
    fr1 = base.cdf(3.5, "fredholm").value
    fr2 = CdfEngine(p, n_nystrom=160).cdf(3.5, "fredholm").value
    checks.append(_check("Nystrom doubling", abs(fr2 - fr1), 1e-4))
    # Pf^2 = det at contour nodes, and the half-contour sum's Pf(conj t) = conj Pf(t)
    worst = sym = 0.0
    for t in base.contour.nodes[::8]:
        tab = SkewProductTable.build(p, t, kmax=p.N - 1, z=3.5)
        pf = pfaffian(tab.entries)
        det = np.linalg.det(tab.entries)
        worst = max(worst, abs(pf**2 - det) / abs(det))
        pf_bar = pfaffian(SkewProductTable.build(p, np.conj(t), kmax=p.N - 1, z=3.5).entries)
        sym = max(sym, abs(pf_bar - np.conj(pf)) / abs(pf))
    checks.append(_check("Pf^2 = det", worst, 1e-9))
    checks.append(_check("conjugation symmetry |Pf(conj t) - conj Pf(t)|", sym, 1e-12))
    grid = [r.value for r in base.cdf_grid(np.linspace(0.4, 12.0, 25))]
    mono = max(max(grid[i] - grid[i + 1] for i in range(len(grid) - 1)), 0.0)
    checks.append(_check("monotone nondecreasing", mono, 1e-6))
    checks.append(_check("bounds", max(-min(grid), max(grid) - 1.0, 0.0), 1e-6))
    return _wrap("numerics-hygiene", checks, t0)


SUITES = {
    "parts-identity": suite_parts_identity,
    "skew-op": suite_skew_op,
    "kernel-equiv": suite_kernel_equiv,
    "derpar": suite_derpar,
    "mc-cdf": suite_mc_cdf,
    "route-equiv": suite_route_equiv,
    "zonal": suite_zonal,
    "sphere-oracle": suite_sphere_oracle,
    "mp-density": suite_mp_density,
    "hygiene": suite_hygiene,
}


def run_suite(name: str, seed: int | None = None) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    return fn() if seed is None else fn(seed=seed)


def run_all(seed: int | None = None) -> list[dict]:
    return [run_suite(name, seed=seed) for name in SUITES]
