"""Numerics for the stationary compressed-unitary (free Jacobi) process:
spectral measures and their transforms, the orthogonal families and their
recurrence data, a product-dependence certification of the renormalized
generating-function kernel, a tridiagonal vacuum-moment realization, the
drift/martingale residual machinery with its closed-form flows, and a
random-matrix Monte Carlo counterpart."""

from .errors import ConvergenceError, PositivityError
from .fock import FockSpace, build_fock, vacuum_moments
from .martingale import (FlowConstants, flow_K, flow_K_ode_residual, flow_Z,
                         flow_Z_ode_residual, martingale_residuals)
from .measures import (JacobiParams, SpectralMeasure, cauchy_closed_form_mu,
                       cauchy_transform, cdf_grid, moments, mu_lambda_theta,
                       nu_lambda, nu_lambda_theta, one_step_law,
                       pushforward_affine, stieltjes_invert, xi_lambda,
                       xi_shift)
from .polys import chebyshev_T, chebyshev_U
from .recurrence import JacobiSzego, extract_from_measure, stated_params
from .renorm import (RenormKernel, build_P_lambda, build_Q_lambda,
                     build_Q_lambda_theta, certify_product_dependence,
                     family_gram, rho_trig, theta_one, theta_ratio, theta_two,
                     u_combination)
from .simulator import (MatrixProcessState, evolve_unitary_bm,
                        jacobi_spectrum, ks_distance, make_state,
                        sample_haar_unitary, simulate_trials)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "PositivityError",
    "chebyshev_T", "chebyshev_U",
    "JacobiParams", "SpectralMeasure", "mu_lambda_theta", "nu_lambda",
    "nu_lambda_theta", "one_step_law", "xi_lambda", "xi_shift", "moments",
    "cauchy_transform", "cauchy_closed_form_mu", "stieltjes_invert",
    "pushforward_affine", "cdf_grid",
    "RenormKernel", "rho_trig", "theta_one", "theta_two", "theta_ratio",
    "certify_product_dependence",
    "u_combination", "family_gram",
    "build_P_lambda", "build_Q_lambda", "build_Q_lambda_theta",
    "JacobiSzego", "stated_params", "extract_from_measure",
    "FockSpace", "build_fock", "vacuum_moments",
    "martingale_residuals",
    "FlowConstants",
    "flow_Z", "flow_Z_ode_residual", "flow_K", "flow_K_ode_residual",
    "MatrixProcessState", "sample_haar_unitary", "evolve_unitary_bm",
    "make_state", "jacobi_spectrum", "ks_distance",
    "simulate_trials",
]
