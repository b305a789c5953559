"""Rank-1 group integrals three ways: Haar sampling, zonal series, contour.

The O(N) average of e^{M y sum x_i g_iN^2} has a zonal-polynomial expansion
whose single-row coefficients come from one generating function, and (for
even N) a contour-integral form whose residue series is the same expansion.
U(N) and Sp(N) analogues use powers -1 and -2 of the product.
"""

import math

from wishart_lab import (McConfig, ModelParams, contour_S, haar_integral, haar_series,
                         series_S, zonal_I_closed_form, zonal_row)

x = [0.1, 0.2, 0.3, 0.4]
y, M = 0.5, 2
N = len(x)

print("single-row zonal values Z_(k)(X) for X =", x)
Z = zonal_row(x, 6, "real")
for k in range(7):
    print(f"  k={k}: Z={Z[k]:.8f}   Z_(k)(I_4)={zonal_I_closed_form(4, k):.6f}")

ct = contour_S(M, x, y, power=1)
se = series_S(M, N, x, y, power=1, max_k=50)
print(f"\ncontour integral: {ct:.12f}")
print(f"residue series:   {se:.12f}")
print(f"relative deviation: {abs(ct - se) / abs(se):.2e}")

hs = haar_series(M, N, x, y, max_k=50)
pref = math.exp((N / 2 - 1) * math.log(M) - math.lgamma(N / 2))
print(f"\ngroup-average series: {hs:.10f} (x M^(N/2-1)/Gamma(N/2) = {pref * hs:.10f})")

cfg = McConfig(seed=123, n_samples=200_000, params=ModelParams(2, 4, 0.0))
mean, err = haar_integral(cfg, x, y, M=M)
print(f"Haar O(4) Monte Carlo:  {mean:.10f} +- {err:.1e}"
      f"   ({abs(mean - hs) / err:.2f} sigma from the series)")
