"""Tour of the group structure and the distance from the origin.

Walks through the twisted product, dilations, the horizontal frame, and
the closed-form Carnot-Caratheodory distance on a two-block nonisotropic
group, printing small tables along the way.  Points are flat arrays
[x_11, y_11, x_21, y_21, x_22, y_22, t].

Run:  python3 demos/group_geometry.py
"""

import math

import numpy as np

from nilheat.distance import (
    boundary_threshold,
    distance_squared_arrays,
    mu,
    mu_inverse,
    solve_theta_arrays,
)
from nilheat.groups import GroupParams, block_norms_sq_flat, dilate_flat, inverse_flat, multiply_flat

params = GroupParams(l=2, k=(1, 2), a=(0.5, 1.0))
print(f"group {params.label()}: n = {params.n}, chart dimension {params.dim}")
BRANCHES = {0: "interior", 1: "zl_zero_interior", 2: "zl_zero_boundary"}


def solve(g):
    """(theta, branch name) of the angle equation at a flat point."""
    theta, branch, _ = solve_theta_arrays(params, block_norms_sq_flat(params, g), g[-1])
    return float(theta), BRANCHES[int(branch)]


def dist_sq(g):
    return float(distance_squared_arrays(params, block_norms_sq_flat(params, g), g[-1]))


# the twisted product: the center coordinate picks up a weighted symplectic area
g = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])  # z = (1, (i, 0)), t = 0
g2 = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])  # z = (i, (1, 0)), t = 0
prod = multiply_flat(params, g, g2)
print("\n(z,0)(z',0) twist:", prod[-1], " (weights 2 a_i applied per block)")
print("g g^-1 back at the origin:", np.allclose(multiply_flat(params, g, inverse_flat(g)), 0))

# dilations scale z linearly and t quadratically
gt = np.array([0.3, 0.1, 0.0, 0.2, 0.1, 0.0, 0.25])
for r in (0.5, 2.0):
    d = dilate_flat(params, r, gt)
    print(f"dilate({r}): |z| factor {math.hypot(*d[:2]) / math.hypot(*gt[:2]):.1f}, "
          f"t factor {d[-1] / gt[-1]:.1f}")

# the monotone map behind the angle equation
print("\nmonotone map: value at pi/2 =", mu(math.pi / 2))
print("inverse map roundtrip error:", abs(mu_inverse(mu(1.2)) - 1.2))

# distance branches: interior angle solve vs the z_l = 0 edge
inner = np.array([0.8, 0.0, 0.5, 0.0, 0.0, 0.0, 0.4])
theta, branch = solve(inner)
print(f"\ninterior point: theta = {theta:.6f}, branch = {branch}, "
      f"eps0 = {np.sinc(theta / math.pi):.6f}")

edge = np.array([0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0])
thr = boundary_threshold(params, np.array([0.64, 0.0]))
print(f"top block zero, |t| = 2.0 vs threshold {thr:.4f}: branch =", solve(edge)[1])

# the two pinned slices of the distance
zs = np.array([0.6, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0])
print("\nd(z, 0)  =", math.sqrt(dist_sq(zs)), " (equals |z|)")
ta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
print("d(0, t)^2 =", dist_sq(ta), " (equals pi |t|)")

# homogeneity under dilation
base = dist_sq(gt)
print("\nhomogeneity d^2(dilate(r, g)) / (r^2 d^2(g)):")
for r in (0.3, 1.7, 4.0):
    print(f"  r = {r}: {dist_sq(dilate_flat(params, r, gt)) / (r * r * base):.12f}")

# a short table along a vertical line: the angle sweeps toward the edge
print("\nangle and distance climbing the vertical direction at fixed z:")
print(f"{'t':>6} {'theta':>10} {'d^2':>10} {'eps0':>8}")
for t in (0.1, 0.5, 1.0, 2.0, 4.0):
    p = np.array([0.5, 0.0, 0.4, 0.0, 0.0, 0.0, t])
    theta, _ = solve(p)
    print(f"{t:6.2f} {theta:10.6f} {dist_sq(p):10.6f} {np.sinc(theta / math.pi):8.5f}")
