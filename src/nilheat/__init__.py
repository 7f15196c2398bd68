"""Numerics on nonisotropic Heisenberg groups.

Group operations and horizontal frame fields, the Carnot-Caratheodory
distance in closed form, heat kernel evaluation by the trapezoid rule on
the saddle line of its Fourier integral, chart ("polar") coordinates
adapted to the dilation rays, a horizontal-diffusion sampler, and a
verification harness that estimates the constants in the gradient,
Cheeger-type, log-Sobolev, and Poincare inequalities for the heat
semigroup.

The scalar entry points whose names match their home modules (the kernel
evaluator ``nilheat.kernel.kernel`` and the distance ``nilheat.distance.
distance``) are reached through those modules to keep the submodule
namespaces importable.
"""

from .distance import (
    Branch,
    ThetaSolution,
    check_distance_equivalence,
    distance_between,
    distance_squared,
    epsilon0,
    mu,
    mu_inverse,
    solve_theta,
)
from .groups import (
    GroupParams,
    GroupPoint,
    apply_left_field,
    apply_right_field,
    dilate,
    horizontal_gradient_norm,
    inverse,
    multiply,
    origin,
    sub_laplacian,
)
from .kernel import (
    KernelValue,
    QuadratureSpec,
    check_kernel_comparison,
    check_scaling,
    integrate_radial,
    log_kernel_left_gradient,
    log_kernel_t_derivative,
)
from .polar import (
    PolarPoint,
    check_change_of_variables,
    classify_region,
    det_bordered,
    horizontal_path_check,
    jacobian_closed_form,
    jacobian_matrix,
    pj_estimate,
    psi,
    psi_inverse,
    ray_integral_check,
    ray_integrals,
)
from .reports import VerificationReport
from .semigroup import (
    DiffusionSpec,
    ball_mean,
    check_cheeger,
    check_commutation,
    check_holder_corollary,
    check_li_inequality,
    check_log_sobolev_poincare,
    check_translation_dilation_reduction,
    grad_semigroup,
    sample_heat_points,
    semigroup_apply,
)
from .suites import RunConfig, run_suite
from .testfuncs import TestFunction, standard_family

__version__ = "0.1.0"
