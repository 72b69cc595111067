"""Spectrum of the horizontal tangential operator on Heisenberg
isoperimetric profiles: closed-form hypergeometric eigenpairs, Gamma-condition
root finders, degenerate Sturm-Liouville discretizations and Fourier-mode
studies, with a verification-oriented CLI."""

from .geometry import (GeodesicPath, GeodesicState, ProfileParams,
                       geodesic_trace, horizontal_normal,
                       mean_curvature_check, omega_bar,
                       profile_geodesic_residual, profile_height)
from .numerics import (QuadratureRule, bisect_root, gauss_jacobi_rule,
                       integrate_profile_radial, profile_rule)
from .operators import (FullJet, PolarJet, RadialJet, SLCoefficients,
                        apply_full, apply_polar_h1, apply_radial,
                        sl_coefficients, verify_identities)
from .specfun import (Hyp2F1Params, gauss_value_at_one, hyp2f1_auto,
                      recip_gamma)
from .spectrum import (ModeOperator, RadialEigenmode, SLDiscretization,
                       build_mode_operator, build_radial_discretization,
                       discrete_radial_spectrum, eigencondition_even_roots,
                       eigencondition_odd_roots, even_condition_value,
                       gram_matrix, green_check, green_symmetry_residual,
                       mode_spectrum, odd_condition_value,
                       poincare_constant_estimate, radial_eigenfunction,
                       radial_eigenvalue, rayleigh_quotient, richardson,
                       subdomain_bound_check)

__version__ = "0.1.0"
