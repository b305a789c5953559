"""The S1 kernel two ways: defining sums vs CD kernel + rank-2 correction.

The brute-force evaluator inverts the N x N skew moment matrix; the
structured evaluator needs only the two highest Laguerre polynomials, the
epsilon transforms of two skew-orthogonal polynomials, and a 2x2 matrix
with an explicit closed form.  They agree to machine precision, which is
the finite-N structure theorem of this model.
"""

import numpy as np

from wishart_lab import CdCorrectedKernel, KernelBundle, ModelParams, SkewProductTable

params = ModelParams(N=4, M=8, tau=1.0)
t = 2 + 1j
table = SkewProductTable.build(params, t)    # both evaluators on one table, up to degree N + 1
brute = KernelBundle.build(params, t, table=table)
cd = CdCorrectedKernel.build(params, t, table=table)

print(f"N={params.N}, M={params.M}, tau={params.tau}, t={t}\n")
print("correction matrix (closed form):")
with np.printoptions(precision=4, suppress=False):
    print(cd.A)
print("\nsame matrix rebuilt from raw skew products (C^T B^{-1}):")
with np.printoptions(precision=4):
    print(cd.correction_matrix_from_table())

xs = np.linspace(0.5, 5.0, 4)
sb = brute.s1(xs, xs)
sc = cd.s1(xs, xs)
print("\nmax |brute - structured| / scale on a 4x4 grid:",
      f"{np.max(np.abs(sb - sc)) / np.max(np.abs(sb)):.2e}")
print("trace of S1 (should be exactly N):", f"{brute.trace_s1():.12f}")

print("\nS1(x, x) along the axis (spectral density shape, complex at this t):")
for x in np.linspace(0.5, 6.0, 8):
    v = brute.s1(x, x)
    print(f"  x={x:4.2f}  S1={v.real:+.5f}{v.imag:+.5f}i")
