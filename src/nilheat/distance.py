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
angle equation has one root.  It is solved on |t| and the sign of t is put
back at the end, so theta is exactly odd in t.  Rows are solved in blocks
of `_SOLVE_BLOCK` by a safeguarded Newton iteration:

- start from the asymptote 3v/2 (v < 0.7) or pi - sqrt(pi/v) (v >= 0.7),
  with v = |t| / sum_j a_j^2 |z_j|^2;
- step by Newton on sinc(theta)^2 F(theta), F the angle-equation residual;
  the factor cancels F's pi/(pi - theta)^2 pole, so steps near pi do not
  crawl;
- keep a bracket from the sign of F and bisect whenever a step leaves it;
- end a row after one more evaluation once its Newton step is at
  round-off, or once F's rounding noise sets the step (a step below
  1e-8 min(theta, pi - theta) that shrinks less than tenfold or leaves the
  bracket), or once its bracket is one ulp wide; `_MAX_PASSES` caps it.

A stopped row leaves the active set, so its result does not depend on the
other rows, and it returns the evaluated angle with the smallest |F|, with
that F as its residual.  Near w = 0 mu, its derivative and the distance
forms are evaluated by series to dodge the 0/0 cancellation.

Branch bookkeeping never compares floats against pi: boundary solutions
are tagged with an explicit branch code (0 interior, 1 interior with
z_l = 0, 2 boundary).
"""

from __future__ import annotations

import math

import numpy as np

from .groups import GroupParams, block_norms_sq_flat

__all__ = [
    "mu",
    "mu_prime",
    "mu_inverse",
    "boundary_threshold",
    "solve_theta_arrays",
    "distance_squared_arrays",
]

# Below the cut, mu, mu', w/sin w, w cot w and cot w - 1/w come from five
# Taylor terms (truncation below 1e-17 relative at the cut); above it the
# direct formulas lose about eps/w^2 to cancellation (2e-14 relative at 0.05)
_SERIES_CUT = 0.05
_THETA_CAP = math.pi - 1e-12
_SOLVE_BLOCK = 4096  # rows per block: 32 KB temporaries; 8192 and up raised the peak RSS
_MAX_PASSES = 64  # a row that only bisects is one ulp wide by then
_NEWTON_STOP = 1e-8  # relative step size past Newton's quadratic phase


def _mu_jet(w):
    """mu(w) and mu'(w) on an array of any shape from one sin pair.

    With s = sin w and S = sin 2w (so cos w = S / 2s):
    mu = (2w - S)/(2 s^2) and mu' = 2 (sin w - w cos w)/sin^3 w
    = (2 s^2 - w S)/s^4, with their series below `_SERIES_CUT`.
    """
    small = np.abs(w) < _SERIES_CUT
    ws = np.where(small, 0.5, w)  # safe denominator for the series lanes
    s2 = np.sin(ws) ** 2
    sin2w = np.sin(2.0 * ws)
    m = (2.0 * ws - sin2w) / (2.0 * s2)
    dm = (2.0 * s2 - ws * sin2w) / (s2 * s2)
    if small.any():
        w0 = w[small]
        w2 = w0 * w0
        m[small] = w0 * (
            2.0 / 3.0
            + w2 * (4.0 / 45.0 + w2 * (4.0 / 315.0 + w2 * (8.0 / 4725.0 + w2 * (4.0 / 18711.0))))
        )
        dm[small] = 2.0 / 3.0 + w2 * (
            4.0 / 15.0 + w2 * (4.0 / 63.0 + w2 * (8.0 / 675.0 + w2 * (4.0 / 2079.0)))
        )
    return m, dm


def mu(omega):
    """(2w - sin 2w)/(2 sin^2 w) on (-pi, pi); odd, strictly increasing."""
    omega = np.asarray(omega, dtype=float)
    if np.any(np.abs(omega) >= math.pi):
        raise ValueError("mu is only defined on (-pi, pi)")
    out = _mu_jet(omega.reshape(-1))[0].reshape(omega.shape)
    return out if out.ndim else float(out)


def mu_prime(omega):
    """Derivative 2 (sin w - w cos w)/sin^3 w, series-protected near 0."""
    omega = np.asarray(omega, dtype=float)
    out = _mu_jet(omega.reshape(-1))[1].reshape(omega.shape)
    return out if out.ndim else float(out)


def mu_inverse(v):
    """Solve mu(theta) = v for theta in (-pi, pi), elementwise; a float for
    a scalar v.

    The angle equation with l = 1 and |z|^2 = 1, solved by `_newton_rows`.
    """
    v = np.asarray(v, dtype=float)
    rows = np.abs(v).reshape(-1)
    theta, _ = _newton_rows(np.ones(1), np.ones((rows.size, 1)), rows)
    out = np.copysign(theta.reshape(v.shape), v)
    return out if out.ndim else float(out)


def boundary_threshold(params: GroupParams, zsq):
    """sup over theta of the angle-equation right side when z_l = 0.

    zsq: (..., l).  One threshold per point, a float for a single point;
    zero on single-block groups.
    """
    zsq = np.asarray(zsq, dtype=float)
    a = np.asarray(params.a[:-1])
    thresh = np.sum(a * mu(a * math.pi) * zsq[..., :-1], axis=-1)
    return float(thresh) if thresh.ndim == 0 else thresh


def _angle_jet(a, zsq, theta):
    """The angle equation's right side and its theta-derivative at fixed z:
    sum_j a_j mu(a_j theta) zsq_j and sum_j a_j^2 mu'(a_j theta) zsq_j.

    a: (l,); zsq: (..., l); theta: (...).  The sums run over j in order,
    one column at a time: numpy's sum over a short last axis is several
    times slower.
    """
    m, dm = _mu_jet(theta[..., None] * a)
    F = dF = 0.0
    for j, aj in enumerate(a):
        F = F + aj * m[..., j] * zsq[..., j]
        dF = dF + aj * aj * dm[..., j] * zsq[..., j]
    return F, dF


def _newton_rows(a, zsq, t):
    """Angle-equation root for one block of rows: (theta, residual).

    a: (l,); zsq: (B, l); t: (B,) with t >= 0, every entry finite and every
    row solvable (not on the boundary branch).  Returns, per row, the
    evaluated theta in [0, _THETA_CAP] with the smallest |F| and that
    F(theta) = sum_j a_j mu(a_j theta) zsq_j - t.
    """
    v = t / np.sum(a * a * zsq, axis=-1)
    # the two asymptotes come closest (0.03 apart) near v = 0.7
    theta = np.where(v < 0.7, 1.5 * v, math.pi - np.sqrt(math.pi / np.maximum(v, 0.7)))
    theta = np.minimum(theta, _THETA_CAP)
    lo = np.zeros_like(t)
    hi = np.full_like(t, _THETA_CAP)
    last = np.zeros(t.shape, dtype=bool)
    prev = np.full_like(t, np.inf)  # the last Newton step, inf after a bisection
    rows = np.arange(t.size)
    out = theta.copy()
    res = np.full_like(t, np.inf)
    for npass in range(_MAX_PASSES):
        F, dF = _angle_jet(a, zsq, theta)
        F = F - t
        # keep the evaluated angle with the smallest residual
        better = np.abs(F) < np.abs(res[rows])
        out[rows[better]] = theta[better]
        res[rows[better]] = F[better]
        keep = ~(last | (F == 0.0))
        if npass == _MAX_PASSES - 1 or not keep.any():
            break
        rows, theta, t, zsq, prev = rows[keep], theta[keep], t[keep], zsq[keep], prev[keep]
        F, dF = F[keep], dF[keep]
        lo = np.where(F < 0.0, theta, lo[keep])
        hi = np.where(F > 0.0, theta, hi[keep])
        # Newton on sinc^2 F: the step is F / (F' + 2 F (cot theta - 1/theta))
        near0 = theta < _SERIES_CUT
        ts = np.where(near0, 0.5, theta)
        t2 = theta * theta
        series = -theta * (
            1.0 / 3.0 + t2 * (1.0 / 45.0 + t2 * (2.0 / 945.0 + t2 * (1.0 / 4725.0)))
        )
        r = np.where(near0, series, np.cos(ts) / np.sin(ts) - 1.0 / ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = F / (dF + 2.0 * r * F)
        nxt = theta - step
        newton = (nxt >= lo) & (nxt <= hi)
        theta = np.where(newton, nxt, 0.5 * (lo + hi))
        # the row ends after one more evaluation once its step is at
        # round-off, or once F's rounding noise sets the step: a small step
        # that shrinks less than tenfold, or that leaves the bracket
        size = np.abs(step)
        small = size <= _NEWTON_STOP * np.minimum(theta, math.pi - theta)
        last = np.where(
            newton,
            (size <= 2.0 * np.spacing(theta)) | (small & (size > 0.1 * prev)),
            small | (hi - lo <= 2.0 * np.spacing(hi)),
        )
        prev = np.where(newton, size, np.inf)
    return out, res


def _flat_rows(params: GroupParams, zsq, t):
    """Broadcast zsq (..., l) against t (...); return (N, l), (N,) and the shape."""
    zsq = np.asarray(zsq, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(zsq.shape[:-1], t.shape)
    zsq = np.broadcast_to(zsq, shape + (params.l,)).reshape(-1, params.l)
    return zsq, np.broadcast_to(t, shape).reshape(-1), shape


def solve_theta_arrays(params: GroupParams, zsq, t):
    """Vectorized angle-equation solve.

    zsq: (..., l) block norm squares; t: (...).  Returns (theta, branch,
    residual) where branch is an int8 array with 0 = interior, 1 = interior
    with z_l = 0, 2 = boundary.  theta is NaN on the boundary branch, and
    theta and residual are NaN on rows with a non-finite entry.
    """
    zsq, t, shape = _flat_rows(params, zsq, t)
    if np.any(np.all(zsq == 0.0, axis=-1) & (t == 0.0)):
        raise ValueError("angle equation is undefined at the origin")

    a = np.asarray(params.a)
    theta = np.full(t.shape, np.nan)
    residual = np.zeros(t.shape)
    branch = np.zeros(t.shape, dtype=np.int8)
    for s in range(0, t.size, _SOLVE_BLOCK):
        blk = slice(s, s + _SOLVE_BLOCK)
        zb, tb = zsq[blk], t[blk]
        zl_zero = zb[:, -1] == 0.0
        boundary = zl_zero & (np.abs(tb) >= boundary_threshold(params, zb))
        branch[blk][zl_zero] = 1
        branch[blk][boundary] = 2
        finite = np.isfinite(tb) & np.all(np.isfinite(zb), axis=-1)
        residual[blk][~finite] = np.nan
        rows = ~boundary & finite
        th, res = _newton_rows(a, zb[rows], np.abs(tb[rows]))
        theta[blk][rows] = np.copysign(th, tb[rows])
        residual[blk][rows] = np.where(tb[rows] < 0.0, -res, res)
    return theta.reshape(shape), branch.reshape(shape), residual.reshape(shape)


def _sin_forms(w):
    """w/sin(w) and w cot(w) from one sin/cos pair, series near 0."""
    small = np.abs(w) < _SERIES_CUT
    ws = np.where(small, 0.5, w)
    s, c = np.sin(ws), np.cos(ws)
    over_sin = ws / s
    w_cot = ws * c / s
    if small.any():
        w2 = w[small] * w[small]
        over_sin[small] = 1.0 + w2 * (
            1.0 / 6.0 + w2 * (7.0 / 360.0 + w2 * (31.0 / 15120.0 + w2 * (127.0 / 604800.0)))
        )
        w_cot[small] = 1.0 - w2 * (
            1.0 / 3.0 + w2 * (1.0 / 45.0 + w2 * (2.0 / 945.0 + w2 * (1.0 / 4725.0)))
        )
    return over_sin, w_cot


def distance_squared_arrays(params: GroupParams, zsq, t, return_parts=False):
    """Vectorized squared distance from the origin.

    With return_parts=True also returns (theta, branch, second-form value);
    the second form is NaN on the boundary branch.  The origin gives 0 with
    branch 2 and NaN theta.
    """
    zsq, t, shape = _flat_rows(params, zsq, t)
    at_origin = np.all(zsq == 0.0, axis=-1) & (t == 0.0)
    rows = np.flatnonzero(~at_origin) if at_origin.any() else slice(None)
    theta = np.full(t.shape, np.nan)
    branch = np.full(t.shape, 2, dtype=np.int8)
    if not at_origin.all():
        theta[rows], branch[rows], _ = solve_theta_arrays(params, zsq[rows], t[rows])

    a = np.asarray(params.a)
    cot_pi = np.cos(a[:-1] * math.pi) / np.sin(a[:-1] * math.pi)
    out = np.zeros(t.shape)
    form2 = np.full(t.shape, np.nan)
    for s in range(0, t.size, _SOLVE_BLOCK):
        blk = slice(s, s + _SOLVE_BLOCK)
        zb, tb, thb = zsq[blk], t[blk], theta[blk]
        interior = branch[blk] != 2
        boundary = ~interior & ~at_origin[blk]
        if np.any(boundary):
            extra = np.sum(a[:-1] * cot_pi * zb[boundary, :-1], axis=-1)
            out[blk][boundary] = math.pi * (np.abs(tb[boundary]) + extra)
        th, z = thb[interior], zb[interior]
        over_sin, w_cot = _sin_forms(th[:, None] * a)
        out[blk][interior] = np.sum(over_sin**2 * z, axis=-1)
        form2[blk][interior] = th * tb[interior] + np.sum(w_cot * z, axis=-1)

    out = out.reshape(shape)
    if return_parts:
        return out, theta.reshape(shape), branch.reshape(shape), form2.reshape(shape)
    return out


def check_distance_equivalence(params: GroupParams, cloud):
    """Ratio d^2 / (|z|^2 + |t|) over a sample cloud.

    Reports the observed extremes; on stratified groups the ratio is pinned
    between positive constants (it equals 1 on the t = 0 slice and pi on
    the z = 0 axis).  The verdict asks for finite positive extremes.
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
    return rep
