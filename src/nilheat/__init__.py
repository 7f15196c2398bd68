"""Numerics on nonisotropic Heisenberg groups.

Group operations and horizontal frame fields, the Carnot-Caratheodory
distance in closed form, heat kernel evaluation by the trapezoid rule on
the saddle line of its Fourier integral, chart ("polar") coordinates
adapted to the dilation rays, a horizontal-diffusion sampler, and a
verification harness that estimates the constants in the gradient,
Cheeger-type, log-Sobolev, and Poincare inequalities for the heat
semigroup.

Points are flat coordinate arrays (..., 2n+1) and chart points pairs of
arrays u (..., 2n) and eta (...); every quantity has one entry point over
such arrays.
"""

from .distance import (
    check_distance_equivalence,
    distance_squared_arrays,
    mu,
    mu_inverse,
    solve_theta_arrays,
)
from .groups import (
    GroupParams,
    dilate_flat,
    horizontal_components,
    inverse_flat,
    multiply_flat,
    sub_laplacian,
)
from .kernel import (
    KernelValue,
    QuadratureSpec,
    check_kernel_comparison,
    integrate_radial,
    log_kernel_derivatives,
)
from .polar import (
    check_change_of_variables,
    check_horizontal_rays,
    det_bordered,
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
    grad_semigroup_components,
    sample_heat_points,
    semigroup_estimate,
)
from .suites import RunConfig, run_suite
from .testfuncs import TestFunction, standard_family

__version__ = "0.1.0"
