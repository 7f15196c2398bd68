"""Heat kernel evaluation: profiles, scaling, mass, and derivative bounds.

Evaluates the kernel by the saddle-line trapezoid rule on the first
Heisenberg group, where the center-axis profile has the closed form
sech(pi t / 8)^2 / 64 at unit time, then shows the scaling law, the total
mass, and the boundedness of h |grad log p_h| / d along a ray.  Points
are flat arrays [x_11, y_11, ..., t].

Run:  python3 demos/heat_kernel_profile.py
"""

import math

import numpy as np

from nilheat.distance import distance_squared_arrays
from nilheat.groups import GroupParams, block_norms_sq_flat, dilate_flat, horizontal_components
from nilheat.kernel import (
    QuadratureSpec,
    integrate_radial,
    kernel_derivatives,
    kernel_points,
    kernel_zsq,
    scaling_deviation,
)

h1 = GroupParams(1, (1,), (1.0,))
spec = QuadratureSpec(tol=1e-10)

value, error = kernel_points(h1, 1.0, np.zeros(h1.dim), spec)
print(f"p_1(0,0) = {value:.12f}  (1/64 = {1 / 64:.12f}, error estimate {error:.1e})")

print("\ncenter-axis profile vs the closed form:")
print(f"{'t':>5} {'quadrature':>16} {'sech^2 form':>16} {'rel diff':>10}")
for t in (0.0, 1.0, 2.5, 5.0):
    v, _ = kernel_zsq(h1, 1.0, np.array([0.0]), np.asarray(t), spec)
    cf = (1 / 64) / math.cosh(math.pi * t / 8) ** 2
    print(f"{t:5.1f} {float(v):16.10e} {cf:16.10e} {abs(float(v) - cf) / cf:10.2e}")

# parabolic scaling: h^{n+1} p_h(z, t) = p_1(z / sqrt h, t / h)
g = np.array([0.4, -0.3, 0.6])
print("\nscaling-law deviation at a fixed point:")
for h in (0.25, 1.7, 4.0):
    left = kernel_points(h1, h, g, spec)
    right = kernel_points(h1, 1.0, dilate_flat(h1, 1.0 / math.sqrt(h), g), spec)
    dev, _ = scaling_deviation(h1, h, *left, *right)
    print(f"  h = {h}: deviation {dev:.2e}")

# the kernel integrates to one (block-radial reduction of the full integral;
# the block-norm and t rules meet in one kernel call per block of rows)
mass_spec = QuadratureSpec(tol=1e-9)
mass = integrate_radial(
    h1, lambda zs, t: kernel_zsq(h1, 1.0, zs, t, mass_spec)[0], rho_max=11.0, t_max=55.0
)
print(f"\nkernel mass over the whole group: {mass:.10f}")

# log-derivative bounds: h |grad log p| / d and h |d_t log p| along a ray
print("\nalong the dilation ray through (0.4, 0.3, 0.2):")
print(f"{'scale':>6} {'d':>8} {'h|grad log p|/d':>16} {'h|d_t log p|':>13}")
base = np.array([0.4, 0.3, 0.2])
for s in (0.5, 1.0, 2.0, 3.0):
    pt = base * np.array([s, s, s * s])
    out = kernel_derivatives(h1, 1.0, pt, spec)
    egrad = out["dp"] / out["p"]
    comps = horizontal_components(h1, egrad, pt, "left")
    d = math.sqrt(float(distance_squared_arrays(h1, block_norms_sq_flat(h1, pt), pt[-1])))
    print(f"{s:6.1f} {d:8.4f} {float(np.sqrt(np.sum(comps**2))) / d:16.6f} "
          f"{abs(float(egrad[-1])):13.6f}")

# the same machinery on a nonisotropic group
p2 = GroupParams(2, (1, 2), (0.5, 1.0))
g2 = np.array([0.3, 0.2, 0.4, -0.1, 0.0, 0.2, 0.5])
vals, errs = kernel_points(p2, 1.0, np.stack([g2, -g2]))
print(f"\ntwo-block group value at (z, 0.5): {vals[0]:.6e} (error {errs[0]:.1e})")
print("inversion symmetry p(g) - p(g^-1):", float(vals[0] - vals[1]))
