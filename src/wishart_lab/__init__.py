"""Finite-N machinery of the rank-1 real Wishart spiked model.

The ensemble is S = X X^T / M with Gaussian columns of covariance
diag(1 + tau, 1, ..., 1).  The package implements, and cross-validates
against brute-force and Monte-Carlo oracles:

* the contour-integral form of the eigenvalue j.p.d.f. and the
  Marchenko-Pastur bulk density,
* skew-orthogonal polynomials in a monic Laguerre basis, with the two
  bilinear forms and the integration-by-parts identity tying them together,
* the S1 / IS1 kernels, both from their defining sums and as a Laguerre
  Christoffel-Darboux kernel plus a rank-2 correction,
* the largest-eigenvalue CDF via Pfaffians of truncated moment matrices and
  via a contour integral of Fredholm determinants,
* single-row zonal polynomials and the rank-1 group-integral identities
  for O(N), U(N) and Sp(N).
"""

from .params import (ModelParams, ContourSpec, weight_w, weight_w0, mp_density,
                     mp_edges, make_contour)
from .quadrature import (KAPPA_EPSILON, HalfLineRule, ReferencePanel, half_line_rule,
                         reference_panel, finite_rule, EpsilonTransform)
from .laguerre import LaguerreBasis, build_basis, cd_kernel_k2
from .skew import (SkewProductTable, SkewPolySet, skew_product, inner_product_2,
                   h_poly, build_skew_polys, moment_matrix, pfaffian, default_xmax,
                   rule_for_t)
from .kernels import (KernelBundle, CdCorrectedKernel, correction_matrix,
                      check_multi_orthogonality)
from .cdf import (CdfEngine, CdfResult, truncated_moment_matrix, logdet_m_derivative,
                  fredholm_det, loe_direct_cdf)
from .sampling import (McConfig, sample_wishart_max_eig, sample_wishart_all_eigs,
                       haar_orthogonal, haar_unitary, sphere_integral_oracle,
                       contour_integral_I, haar_orthogonal_integral,
                       haar_unitary_integral)
from .zonal import (zonal_row, zonal_I_closed_form, contour_S,
                    series_S, haar_series, zonal_identity_check)
from .errors import (WishartLabError, ConfigError, SingularWeightError,
                     DegenerateSkewProductError, QuadratureError, PrecisionLossError)

__version__ = "1.0.0"
