"""Carnot-Caratheodory distance from the origin.

The distance is computed through the angle equation: for a point (z, t)
with z_l != 0 there is a unique theta in (-pi, pi) with

    t = sum_j a_j mu(a_j theta) |z_j|^2,      mu(w) = (2w - sin 2w)/(2 sin^2 w),

and then

    d^2 = sum_j (a_j theta / sin(a_j theta))^2 |z_j|^2
        = theta (t + sum_j a_j cot(a_j theta) |z_j|^2).

When z_l = 0 the right side of the angle equation stays bounded as theta
approaches +-pi; if |t| lies below that bound the interior solution still
exists, otherwise the point is on the "boundary branch" where

    d^2 = pi (|t| + sum_{j<l} a_j cot(a_j pi) |z_j|^2).

mu is a strictly increasing odd diffeomorphism of (-pi, pi) onto R, so the
angle equation is solved by bracketing bisection followed by a Newton
polish.  Near w = 0 both mu and its derivative are evaluated by series to
dodge the 0/0 cancellation.

Branch bookkeeping never compares floats against pi: boundary solutions
are tagged with an explicit branch label.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .groups import (
    GroupParams,
    GroupPoint,
    block_norms_sq_flat,
    inverse,
    multiply,
)

__all__ = [
    "Branch",
    "ThetaSolution",
    "mu",
    "mu_prime",
    "mu_inverse",
    "boundary_threshold",
    "solve_theta",
    "solve_theta_arrays",
    "distance_squared",
    "distance_squared_arrays",
    "distance",
    "distance_between",
    "epsilon0",
    "cancellation_exponent",
]

_SERIES_CUT = 1e-3
_THETA_CAP = math.pi - 1e-12


class Branch(enum.Enum):
    INTERIOR = "interior"
    ZL_ZERO_INTERIOR = "zl_zero_interior"
    ZL_ZERO_BOUNDARY = "zl_zero_boundary"


@dataclass(frozen=True)
class ThetaSolution:
    """Angle-equation solution: theta is None on the boundary branch."""

    theta: float | None
    branch: Branch
    residual: float
    boundary_sign: int = 0


def mu(omega):
    """(2w - sin 2w)/(2 sin^2 w) on (-pi, pi); odd, strictly increasing."""
    omega = np.asarray(omega, dtype=float)
    if np.any(np.abs(omega) >= math.pi):
        raise ValueError("mu is only defined on (-pi, pi)")
    small = np.abs(omega) < _SERIES_CUT
    w = np.where(small, 0.5, omega)  # safe denominator for the masked lanes
    direct = (2.0 * w - np.sin(2.0 * w)) / (2.0 * np.sin(w) ** 2)
    w2 = omega * omega
    series = omega * (2.0 / 3.0 + w2 * (4.0 / 45.0 + w2 * (4.0 / 315.0)))
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def mu_prime(omega):
    """Derivative 2 (sin w - w cos w)/sin^3 w, series-protected near 0."""
    omega = np.asarray(omega, dtype=float)
    small = np.abs(omega) < _SERIES_CUT
    w = np.where(small, 0.5, omega)
    direct = 2.0 * (np.sin(w) - w * np.cos(w)) / np.sin(w) ** 3
    w2 = omega * omega
    series = 2.0 / 3.0 + w2 * (4.0 / 15.0 + w2 * (4.0 / 63.0))
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def mu_inverse(v: float) -> float:
    """Solve mu(theta) = v for theta in (-pi, pi)."""
    v = float(v)
    if v == 0.0:
        return 0.0
    sign = 1.0 if v > 0 else -1.0
    av = abs(v)
    # asymptotics: mu(w) ~ pi/(pi - w)^2 near pi gives a sharp initial bracket
    hi = _THETA_CAP
    lo = 0.0
    if av > mu(math.pi / 2):
        lo = max(0.0, math.pi - 2.0 * math.sqrt(math.pi / av))
    theta = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mu(mid) < av:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-8:
            break
    theta = 0.5 * (lo + hi)
    for _ in range(8):
        step = (mu(theta) - av) / mu_prime(theta)
        theta = min(max(theta - step, lo), hi)
    return sign * theta


def boundary_threshold(params: GroupParams, zsq):
    """sup over theta of the angle-equation right side when z_l = 0.

    zsq: (..., l).  One threshold per point, a float for a single point;
    zero on single-block groups.
    """
    zsq = np.asarray(zsq, dtype=float)
    a = np.asarray(params.a[:-1])
    thresh = np.sum(a * mu(a * math.pi) * zsq[..., :-1], axis=-1)
    return float(thresh) if thresh.ndim == 0 else thresh


def solve_theta_arrays(params: GroupParams, zsq, t):
    """Vectorized angle-equation solve.

    zsq: (..., l) block norm squares; t: (...).  Returns (theta, branch,
    residual) where branch is an int8 array with 0 = interior, 1 = interior
    with z_l = 0, 2 = boundary.  theta is NaN on the boundary branch.
    """
    zsq = np.asarray(zsq, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(zsq.shape[:-1], t.shape)
    zsq = np.broadcast_to(zsq, shape + (params.l,)).astype(float)
    t = np.broadcast_to(t, shape).astype(float)

    zl_zero = zsq[..., -1] == 0.0
    boundary = zl_zero & (np.abs(t) >= boundary_threshold(params, zsq))
    allzero = np.all(zsq == 0.0, axis=-1) & (t == 0.0)
    if np.any(allzero):
        raise ValueError("angle equation is undefined at the origin")

    a = np.asarray(params.a)
    theta = np.zeros(shape)
    solve = ~boundary
    lo = np.where(t >= 0, 0.0, -_THETA_CAP)
    hi = np.where(t >= 0, _THETA_CAP, 0.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        rhs = np.sum(a * mu(mid[..., None] * a) * zsq, axis=-1)
        go_right = rhs < t
        lo = np.where(solve & go_right, mid, lo)
        hi = np.where(solve & ~go_right, mid, hi)
    theta = 0.5 * (lo + hi)
    # Newton polish; the map is smooth and strictly increasing
    for _ in range(3):
        rhs = np.sum(a * mu(theta[..., None] * a) * zsq, axis=-1)
        slope = np.sum(a * a * mu_prime(theta[..., None] * a) * zsq, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(slope > 0, (rhs - t) / np.where(slope > 0, slope, 1.0), 0.0)
        theta = np.clip(theta - np.where(solve, step, 0.0), -_THETA_CAP, _THETA_CAP)

    residual = np.where(
        solve, np.sum(a * mu(theta[..., None] * a) * zsq, axis=-1) - t, 0.0
    )
    branch = np.zeros(shape, dtype=np.int8)
    branch[zl_zero & ~boundary] = 1
    branch[boundary] = 2
    theta = np.where(boundary, np.nan, theta)
    return theta, branch, residual


def solve_theta(params: GroupParams, g: GroupPoint) -> ThetaSolution:
    """Scalar angle-equation solve with explicit branch classification."""
    zsq = block_norms_sq_flat(params, g.flat())
    if np.all(zsq == 0.0) and g.t == 0.0:
        raise ValueError("angle equation is undefined at the origin")
    theta, branch, residual = solve_theta_arrays(params, zsq, g.t)
    code = int(branch)
    if code == 2:
        return ThetaSolution(None, Branch.ZL_ZERO_BOUNDARY, 0.0, int(np.sign(g.t)) or 1)
    br = Branch.INTERIOR if code == 0 else Branch.ZL_ZERO_INTERIOR
    return ThetaSolution(float(theta), br, float(residual))


def _w_over_sin(w):
    """w/sin(w), series near 0."""
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < _SERIES_CUT
    safe = np.where(small, 0.5, w)
    direct = safe / np.sin(safe)
    w2 = w * w
    series = 1.0 + w2 / 6.0 + 7.0 * w2 * w2 / 360.0
    return np.where(small, series, direct)


def _w_cot(w):
    """w cot(w), series near 0."""
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < _SERIES_CUT
    safe = np.where(small, 0.5, w)
    direct = safe * np.cos(safe) / np.sin(safe)
    w2 = w * w
    series = 1.0 - w2 / 3.0 - w2 * w2 / 45.0
    return np.where(small, series, direct)


def distance_squared_arrays(params: GroupParams, zsq, t, return_parts=False):
    """Vectorized squared distance from the origin.

    With return_parts=True also returns (theta, branch, second-form value);
    the second form is NaN on the boundary branch.
    """
    zsq = np.asarray(zsq, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(zsq.shape[:-1], t.shape)
    zsq_b = np.broadcast_to(zsq, shape + (params.l,))
    t_b = np.broadcast_to(t, shape)
    at_origin = np.all(zsq_b == 0.0, axis=-1) & (t_b == 0.0)

    out = np.zeros(shape)
    theta = np.full(shape, np.nan)
    branch = np.full(shape, 2, dtype=np.int8)
    form2 = np.full(shape, np.nan)
    interior = ~at_origin
    a = np.asarray(params.a)

    # boundary branch
    zl_zero = zsq_b[..., -1] == 0.0
    boundary = zl_zero & (np.abs(t_b) >= boundary_threshold(params, zsq_b)) & ~at_origin
    if np.any(boundary):
        extra = np.zeros(shape)
        if params.l > 1:
            cot = np.cos(a[:-1] * math.pi) / np.sin(a[:-1] * math.pi)
            extra = np.sum(a[:-1] * cot * zsq_b[..., :-1], axis=-1)
        out = np.where(boundary, math.pi * (np.abs(t_b) + extra), out)

    interior = interior & ~boundary
    if np.any(interior):
        th, br, _ = solve_theta_arrays(params, zsq_b, np.where(interior, t_b, 0.0))
        th = np.where(interior, th, 0.0)
        w = th[..., None] * a
        d2_form1 = np.sum(_w_over_sin(w) ** 2 * zsq_b, axis=-1)
        d2_form2 = th * t_b + np.sum(_w_cot(w) * zsq_b, axis=-1)
        out = np.where(interior, d2_form1, out)
        form2 = np.where(interior, d2_form2, form2)
        theta = np.where(interior, th, theta)
        branch = np.where(interior, br, branch)

    if return_parts:
        return out, theta, branch, form2
    return out


def distance_squared(params: GroupParams, g: GroupPoint) -> float:
    return float(distance_squared_arrays(params, block_norms_sq_flat(params, g.flat()), g.t))


def distance(params: GroupParams, g: GroupPoint) -> float:
    return math.sqrt(distance_squared(params, g))


def distance_between(params: GroupParams, g: GroupPoint, g2: GroupPoint) -> float:
    """Left-invariant distance d(g, g2) = d(g^{-1} g2, origin)."""
    return distance(params, multiply(params, inverse(g), g2))


def epsilon0(params: GroupParams, g: GroupPoint) -> float:
    """sin(theta)/theta in (0, 1]; defined only on interior branches."""
    sol = solve_theta(params, g)
    if sol.branch is Branch.ZL_ZERO_BOUNDARY:
        raise ValueError("epsilon0 is undefined on the boundary branch")
    return float(np.sinc(sol.theta / math.pi))


def cancellation_exponent(params: GroupParams, zsq, t, h=1.0):
    """(d^2 - |z|^2)/(4h): log-scale precision lost to oscillatory
    cancellation when the heat kernel is evaluated by quadrature at (z, t).
    """
    zsq = np.asarray(zsq, dtype=float)
    d2 = distance_squared_arrays(params, zsq, t)
    return (d2 - np.sum(zsq, axis=-1)) / (4.0 * h)


def check_distance_equivalence(params: GroupParams, cloud, frozen=None):
    """Ratio d^2 / (|z|^2 + |t|) over a sample cloud.

    Reports the observed extremes; on stratified groups the ratio is pinned
    between positive constants (it equals 1 on the t = 0 slice and pi on
    the z = 0 axis).  With frozen bounds the verdict also checks
    containment in the recorded band.
    """
    from .reports import VerificationReport
    from .sampling import uniform_box

    coords = uniform_box(params, cloud)
    zsq = np.sum(coords[:, : 2 * params.n] ** 2, axis=-1)
    t = coords[:, -1]
    d2 = distance_squared_arrays(params, block_norms_sq_flat(params, coords), t)
    ratio = d2 / (zsq + np.abs(t))
    rep = VerificationReport(
        identifier="distance-equivalence",
        config={"group": params.label(), "count": cloud.count},
        seed=cloud.seed,
        stats={"ratio_min": float(ratio.min()), "ratio_max": float(ratio.max())},
    )
    rep.require(
        bool(np.isfinite(ratio).all()) and float(ratio.min()) > 0.0,
        "equivalence ratio must be finite and positive",
    )
    if frozen:
        # a 10 percent collar: fresh clouds approach the true extremes of
        # the box from inside, so the recorded values are not hard walls
        rep.frozen = dict(frozen)
        rep.require(
            ratio.min() >= frozen["ratio_min"] * 0.9
            and ratio.max() <= frozen["ratio_max"] * 1.1,
            "equivalence ratio extremes left the frozen band",
        )
    return rep
