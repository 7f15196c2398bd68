"""The ray-adapted chart: map, Jacobian routes, regions, ray integrals.

The chart sends (u, eta) to a group point whose angle coordinate is
exactly eta and whose distance is U |eta|; the curve s -> Psi(u, s eta)
is the minimizing horizontal path.  The Jacobian matrix is block
arrowhead (2x2 blocks bordered by the eta column and the t row), and
three routes to its determinant (LU, the two-bracket recursion over the
arrowhead, the closed form) agree to machine precision, and the pushforward of the chart measure reproduces
the Haar integral.  u is a flat array [Re u_11, Im u_11, ..., Im u_22].

Run:  python3 demos/chart_jacobian.py
"""

import math

import numpy as np

from nilheat.distance import distance_squared_arrays, solve_theta_arrays
from nilheat.groups import GroupParams, block_norms_sq_flat
from nilheat.polar import (
    check_change_of_variables,
    det_bordered,
    jacobian_closed_form_arrays,
    jacobian_matrix_flat,
    path_velocity,
    psi_flat,
    psi_inverse_flat,
    ray_integral_check,
    sample_exterior_cloud,
    speed_sq_arrays,
)

params = GroupParams(2, (1, 2), (0.5, 1.0))
u = np.array([0.4, -0.2, 0.3, 0.5, -0.2, 0.1])
eta = 1.1
usq = block_norms_sq_flat(params, u)

g = psi_flat(params, u, eta)
zsq = block_norms_sq_flat(params, g)
print("chart point with eta = 1.1 maps to t =", g[-1])
print("angle coordinate recovered:", float(solve_theta_arrays(params, zsq, g[-1])[0]))
print("distance vs U |eta|:",
      math.sqrt(distance_squared_arrays(params, zsq, g[-1])),
      math.sqrt(speed_sq_arrays(params, usq)) * abs(eta))
u_back, _ = psi_inverse_flat(params, g)
print("roundtrip error:", float(np.max(np.abs(u_back - u))))

# three determinant routes
M = jacobian_matrix_flat(params, u, eta)
print("\nJacobian determinant three ways:")
print("  LU factorization:        ", np.linalg.det(M))
print("  arrowhead recursion:     ", det_bordered(M))
print("  closed form:             ", float(jacobian_closed_form_arrays(params, usq, eta)))

# the horizontal path has constant speed U|eta|
s = np.linspace(0.1, 1.0, 5)
sp = np.sqrt(np.sum(path_velocity(params, u, eta, s) ** 2, axis=-1))
print("\npath speed along the ray (constant):", sp)

# region decomposition of the exterior of the unit ball
ue, etae, labels, diag = sample_exterior_cloud(params, 300, seed=42)
print("\nexterior cloud region counts:", diag["per_region"])

print("\nray-integral comparison at one point per region:")
print(f"{'region':>7} {'eta':>7} {'ratio':>10} {'rel err':>9}")
for r in (1, 2, 3):
    i = int(np.where(labels == r)[0][0])
    out = ray_integral_check(params, ue[i], etae[i])
    print(f"{'R' + str(r):>7} {etae[i]:7.3f} {out['ratio']:10.4f} "
          f"{out['integral_error'] / abs(out['integral']):9.1e}")

# pushforward of the chart measure against the Haar integral
rep = check_change_of_variables(params)
print("\npushforward vs direct integral:",
      rep.stats["direct"], "vs", rep.stats["chart"],
      f"(rel diff {rep.stats['rel_difference']:.1e})")
