"""Heat semigroup two ways, and the empirical inequality constants.

The semigroup is evaluated both by kernel quadrature and by averaging
over endpoints of the horizontal diffusion; the two must agree within
Monte Carlo error.  The sweep at the end estimates the constants in the
pointwise gradient bound, the entropy (log-Sobolev) bound, and the
variance (Poincare) bound over the standard function family.

Run:  python3 demos/semigroup_inequalities.py   (about a minute)
"""

import numpy as np

from nilheat.groups import GroupParams
from nilheat.kernel import QuadratureSpec
from nilheat.semigroup import (
    DiffusionSpec,
    ball_mean,
    check_cheeger,
    check_li_inequality,
    check_log_sobolev_poincare,
    grad_semigroup_components,
    sample_heat_points,
    semigroup_estimate,
)
from nilheat.testfuncs import indicator_like, standard_family

h1 = GroupParams(1, (1,), (1.0,))
spec = DiffusionSpec(paths=20000, seed=7)

# the sampler's exact z marginal: E|z|^2 = 4 n h
W = sample_heat_points(h1, 0.5, spec)
print("E|z|^2 at h = 0.5:", float(np.mean(np.sum(W[:, :2] ** 2, axis=1))), "(expect 2.0)")

# mass conservation: a function equal to 1 on the diffusion's range
one = indicator_like(h1.dim, 60.0)
val, se = semigroup_estimate(h1, one, 1.0, np.zeros(3), "mc", spec)
print("semigroup of the constant 1:", val)

# the two evaluation routes; quadrature needs the kernel at least as wide
# as f: 2 sqrt(h) >= f's scale of 4
fam = standard_family(h1)
f = fam[4]
g = np.array([0.3, -0.2, 0.1])
vq, _ = semigroup_estimate(h1, f, 4.0, g, "quadrature", qspec=QuadratureSpec(tol=1e-9))
vm, se = semigroup_estimate(h1, f, 4.0, g, "mc", spec)
print(f"\nsemigroup value at h = 4: quadrature {vq:.6f}, Monte Carlo {vm:.6f} +- {se:.1e}")
comps, _ = grad_semigroup_components(h1, f, 4.0, g, "quadrature", qspec=QuadratureSpec(tol=1e-9))
print("gradient norm (quadrature route):", float(np.sqrt(np.sum(comps**2))))

# average over the unit ball, two ways
m_mc, se = ball_mean(h1, f, "mc", count=200000, seed=3)
m_grid, _ = ball_mean(h1, f, "grid", grid_points=40)
print(f"\nball average: rejection {m_mc:.6f} +- {se:.1e}, grid {m_grid:.6f}")

# inequality sweeps over the frozen family
pts = [np.zeros(3), np.array([0.5, -0.2, 0.3]), np.array([-1.0, 0.8, -0.5]),
       np.array([0.2, 0.9, 0.7])]
li = check_li_inequality(h1, fam, pts, (0.25, 0.5, 1.0, 2.0), spec)
print("\npointwise gradient bound: empirical constant "
      f"{li.constant:.4f} over {li.stats['cases']} cases "
      f"({li.exclusions} excluded below the noise floor)")

ch = check_cheeger(h1, fam, spec, ball_count=100000)
print("weighted L1 oscillation ratios: global "
      f"{ch.stats['global']:.3f}, ball {ch.stats['ball']:.3f}, "
      f"complement {ch.stats['complement']:.3f}")

lse = check_log_sobolev_poincare(h1, fam[:16], pts[:2], (0.5, 1.0), spec)
print("entropy constant "
      f"{lse.stats['entropy_constant']:.3f}, variance constant "
      f"{lse.stats['variance_constant']:.3f} "
      f"(variance ratio tends to 2 as h -> 0)")
