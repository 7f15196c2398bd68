"""The ray-adapted chart: map, Jacobian routes, regions, ray integrals.

The chart sends (u, eta) to a group point whose angle coordinate is
exactly eta and whose distance is U |eta|; the curve s -> Psi(u, s eta)
is the minimizing horizontal path.  Three routes to the Jacobian
determinant (LU, the bordered-block recursion, the closed form) agree to
machine precision, and the pushforward of the chart measure reproduces
the Haar integral.

Run:  python3 demos/chart_jacobian.py
"""

import math

import numpy as np

from nilheat.distance import distance_squared, solve_theta
from nilheat.groups import GroupParams
from nilheat.polar import (
    PolarPoint,
    check_change_of_variables,
    classify_region,
    det_bordered,
    jacobian_closed_form,
    jacobian_matrix,
    path_velocity,
    psi,
    psi_inverse,
    ray_integral_check,
    sample_exterior_cloud,
    speed,
)

params = GroupParams(2, (1, 2), (0.5, 1.0))
p = PolarPoint((np.array([0.4 - 0.2j]), np.array([0.3 + 0.5j, -0.2 + 0.1j])), 1.1)

g = psi(params, p)
print("chart point with eta = 1.1 maps to t =", g.t)
print("angle coordinate recovered:", solve_theta(params, g).theta)
print("distance vs U |eta|:",
      math.sqrt(distance_squared(params, g)), speed(params, p) * abs(p.eta))
back = psi_inverse(params, g)
print("roundtrip error:", max(float(np.max(np.abs(a - b))) for a, b in zip(back.u, p.u)))

# three determinant routes
M = jacobian_matrix(params, p)
print("\nJacobian determinant three ways:")
print("  LU factorization:        ", np.linalg.det(M))
print("  bordered-block recursion:", det_bordered(M))
print("  closed form:             ", jacobian_closed_form(params, p))

# the horizontal path has constant speed U|eta|
s = np.linspace(0.1, 1.0, 5)
sp = np.sqrt(np.sum(path_velocity(params, p, s) ** 2, axis=-1))
print("\npath speed along the ray (constant):", sp)

# region decomposition of the exterior of the unit ball
u, eta, labels, diag = sample_exterior_cloud(params, 300, seed=42)
print("\nexterior cloud region counts:", diag["per_region"])

print("\nray-integral comparison at one point per region:")
print(f"{'region':>7} {'eta':>7} {'ratio':>10} {'rel err':>9}")
for r in (1, 2, 3):
    i = int(np.where(labels == r)[0][0])
    out = ray_integral_check(params, PolarPoint.from_flat(params, u[i], float(eta[i])))
    print(f"{'R' + str(r):>7} {eta[i]:7.3f} {out['ratio']:10.4f} "
          f"{out['integral_error'] / abs(out['integral']):9.1e}")

# pushforward of the chart measure against the Haar integral
rep = check_change_of_variables(params)
print("\npushforward vs direct integral:",
      rep.stats["direct"], "vs", rep.stats["chart"],
      f"(rel diff {rep.stats['rel_difference']:.1e})")
