"""Polar coordinates adapted to the dilation rays.

The change of variables sends (u, eta), with u_l != 0 and 0 < |eta| < pi,
to the group point

    z_j = (1 - exp(-2 i a_j eta)) u_j,
    t   = sum_j 2 a_j |u_j|^2 (2 a_j eta - sin(2 a_j eta)),

and the ray s -> Psi(u, s eta) is the length-minimizing horizontal path
from the origin: its horizontal speed is the constant U |eta| with
U = (4 sum a_j^2 |u_j|^2)^{1/2}, so d(Psi(u, eta)) = U |eta| and the
angle coordinate of Psi(u, eta) is exactly eta.  `check_horizontal_rays`
checks both in closed form over a chart cloud, with no test function.

With fac_j = |1 - e^{-2i a_j eta}|^2 = 4 sin^2(a_j eta) the block norms
are |z_j|^2 = fac_j |u_j|^2, and t is the right side of the angle
equation, sum_j a_j mu(a_j eta) |z_j|^2.  The Jacobian matrix is block
arrowhead: 2x2 rotation-like diagonal blocks bordered by one column
(d/d eta) and one row (dt/du).  Its determinant has the closed form

    J(u, eta) = prod_j fac_j^{k_j} * dt/d eta at fixed z
              = prod_j fac_j^{k_j} * sum_j a_j^2 mu'(a_j eta) |z_j|^2,

which the two-bracket recursion over that arrowhead (`det_bordered`)
and LU reproduce, and which is positive and even in eta.  t and J come
from one angle-equation jet (`distance._angle_jet`), the one the angle
solve steps on, so mu and mu' have one body and one series near 0.
fac_j = 4 sin^2 w keeps its digits at both ends of (0, pi), where
2 - 2 cos 2w cancels.

The complement of the unit ball, U |eta| >= 1, splits into three regions
used by the ray-integral estimate:

    R1: |eta| < pi/4;
    R2: |eta| >= pi/4 and g = |u'|^2 (pi-|eta|)^2 + |u_l|^2 (pi-|eta|) > 100;
    R3: |eta| >= pi/4 and g <= 100,

with the auxiliary angle margin pi/8 entering the piecewise comparison
quantities.

Chart points are flat arrays: u as (..., 2n), laid out like the horizontal
part of a group point, and eta as (...).  The ray integrals and the ray
check raise PolarDomainError on any row outside the chart.
"""

from __future__ import annotations

import math

import numpy as np

from .distance import _angle_jet, solve_theta_arrays
from .groups import GroupParams, block_norms_sq_flat, horizontal_components
from .kernel import (
    QuadratureSpec,
    _panel_rule,
    _sphere_surface,
    _tensor_rule,
    kernel_zsq,
)
from .reports import VerificationReport
from .sampling import philox

__all__ = [
    "ANGLE_SPLIT",
    "SIZE_SPLIT",
    "ANGLE_MARGIN",
    "PolarDomainError",
    "psi_flat",
    "psi_inverse_flat",
    "speed_sq_arrays",
    "jacobian_matrix_flat",
    "det_bordered",
    "jacobian_closed_form_arrays",
    "jacobian_comparison_arrays",
    "classify_region_arrays",
    "pj_estimate_arrays",
    "ray_integrals",
    "ray_integral_check",
    "path_velocity",
    "check_horizontal_rays",
]

ANGLE_SPLIT = math.pi / 4.0  # splits R1 from R2/R3
SIZE_SPLIT = 100.0  # splits R2 from R3
ANGLE_MARGIN = math.pi / 8.0  # auxiliary margin in the piecewise estimates


class PolarDomainError(ValueError):
    """Point outside the polar chart (u_l = 0, eta outside (0, pi), ...)."""


def _check_chart_domain(usq, eta):
    """PolarDomainError unless every row has u_l != 0 and 0 < |eta| < pi;
    usq (..., l) are the block norms |u_j|^2."""
    eta = np.abs(np.asarray(eta, dtype=float))
    if not np.all((eta > 0.0) & (eta < math.pi)):
        raise PolarDomainError("eta must satisfy 0 < |eta| < pi")
    if np.any(np.asarray(usq)[..., -1] == 0.0):
        raise PolarDomainError("top block u_l must be nonzero")


def speed_sq_arrays(params: GroupParams, usq):
    """U^2 = 4 sum_j a_j^2 |u_j|^2 from block norms (..., l)."""
    return 4.0 * np.sum(np.asarray(params.a) ** 2 * usq, axis=-1)


def psi_flat(params: GroupParams, u_flat, eta):
    """Vectorized chart map: u_flat (..., 2n), eta (...) -> flat (..., 2n+1)."""
    u_flat = np.asarray(u_flat, dtype=float)
    eta = np.asarray(eta, dtype=float)
    n = params.n
    a = params.pair_a
    w = eta[..., None] * a  # (..., n)
    s, c = np.sin(w), np.cos(w)
    re, im = u_flat[..., 0::2], u_flat[..., 1::2]
    shape = np.broadcast_shapes(u_flat.shape[:-1], eta.shape)
    out = np.empty(shape + (params.dim,))
    # z = 2i sin w e^{-iw} u
    out[..., 0 : 2 * n : 2] = 2.0 * s * (s * re - c * im)
    out[..., 1 : 2 * n : 2] = 2.0 * s * (c * re + s * im)
    out[..., 2 * n] = _chart_jet(params, block_norms_sq_flat(params, u_flat), eta)[1]
    return out


def _chart_jet(params: GroupParams, usq, eta):
    """Block norms |z_j|^2 (..., l), t (...) and the Jacobian J (...) of
    Psi(u, eta) from the block norms |u_j|^2 (..., l) and eta (...), by
    one angle-equation jet at the block norms of the image."""
    a = np.asarray(params.a)
    fac = 4.0 * np.sin(eta[..., None] * a) ** 2
    zsq = usq * fac
    t, dt = _angle_jet(a, zsq, eta)
    return zsq, t, np.prod(fac ** np.asarray(params.k), axis=-1) * dt


def psi_inverse_flat(params: GroupParams, coords):
    """Vectorized chart inverse: flat (..., 2n+1) -> (u_flat (..., 2n), eta (...)).

    eta is the angle coordinate and u_j = z_j / (1 - e^{-2i a_j eta})
    = z_j e^{iw} / (2i sin w), w = a_j eta: a division by 2 sin w, whose
    square is fac_j = 4 sin^2 w, and no cancellation anywhere in the chart.
    Needs z_l != 0 and t != 0 at every point, so the angle equation has an
    interior solution with 0 < |eta| < pi.
    """
    coords = np.asarray(coords, dtype=float)
    n = params.n
    zsq = block_norms_sq_flat(params, coords)
    t = coords[..., 2 * n]
    if np.any(zsq[..., -1] == 0.0):
        raise PolarDomainError("chart inverse needs z_l != 0")
    if np.any(t == 0.0):
        raise PolarDomainError("chart inverse needs t != 0")
    eta, _, _ = solve_theta_arrays(params, zsq, t)
    w = eta[..., None] * params.pair_a
    s, c = np.sin(w), np.cos(w)
    zx, zy = coords[..., 0 : 2 * n : 2], coords[..., 1 : 2 * n : 2]
    u_flat = np.empty(coords.shape[:-1] + (2 * n,))
    u_flat[..., 0::2] = (s * zx + c * zy) / (2.0 * s)
    u_flat[..., 1::2] = (s * zy - c * zx) / (2.0 * s)
    return u_flat, eta


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------

def jacobian_matrix_flat(params: GroupParams, u_flat, eta):
    """Jacobian of the chart in coordinates (Re u, Im u, ..., eta):
    u_flat (..., 2n), eta (...) -> (..., dim, dim)."""
    u_flat = np.asarray(u_flat, dtype=float)
    eta = np.asarray(eta, dtype=float)
    dim = params.dim
    a = params.pair_a
    w2 = 2.0 * a * eta[..., None]  # (..., n)
    C, S = np.cos(w2), np.sin(w2)
    kap = w2 - S
    re, im = u_flat[..., 0::2], u_flat[..., 1::2]
    r0 = np.arange(0, dim - 1, 2)
    r1 = r0 + 1
    M = np.zeros(np.broadcast_shapes(u_flat.shape[:-1], eta.shape) + (dim, dim))
    M[..., r0, r0] = 1.0 - C
    M[..., r0, r1] = -S
    M[..., r1, r0] = S
    M[..., r1, r1] = 1.0 - C
    M[..., r0, dim - 1] = 2.0 * a * (S * re - C * im)
    M[..., r1, dim - 1] = 2.0 * a * (S * im + C * re)
    M[..., dim - 1, r0] = 4.0 * a * re * kap
    M[..., dim - 1, r1] = 4.0 * a * im * kap
    ab = np.asarray(params.a)
    usq = block_norms_sq_flat(params, u_flat)
    M[..., dim - 1, dim - 1] = np.sum(
        4.0 * ab**2 * usq * (1.0 - np.cos(2.0 * ab * eta[..., None])), axis=-1
    )
    return M


def det_bordered(M):
    """Determinants of block-arrowhead matrices by the two-bracket recursion.

    M is one matrix (m, m), which gives a float, or a stack (..., m, m),
    which gives an array (...).  m = 2p + 1, and each row/column pair
    (2q, 2q+1) couples only to itself and to the last row and column, as
    in `jacobian_matrix_flat`.  Peeling the first pair gives
    det M = bracket1 det M[2:, 2:] + bracket2 det M[2:-1, 2:-1], and the
    second minor is block diagonal, the product of the later bracket1s;
    the recursion runs unrolled from the last pair up.  Every matrix of a
    stack gets the bits it would get alone.  ValueError for a non-square
    or 1-D input, an even m, or a nonzero entry off the arrowhead.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.shape[-1] % 2 == 0:
        raise ValueError("need a square matrix of odd size 2p+1 or a stack of them")
    m = M.shape[-1]
    pair = np.arange(m) // 2
    off = (pair[:, None] != pair[None, :]) & (pair[:, None] < m // 2) & (pair[None, :] < m // 2)
    if np.any(M[..., off]):
        raise ValueError("matrix is not block arrowhead")
    full, inner = M[..., -1, -1].copy(), 1.0
    for r in range(m - 3, -1, -2):
        b1, b2, b3 = M[..., r, r], M[..., r, r + 1], M[..., r, -1]
        b4, b5, b6 = M[..., r + 1, r], M[..., r + 1, r + 1], M[..., r + 1, -1]
        b7, b8 = M[..., -1, r], M[..., -1, r + 1]
        bracket1 = b1 * b5 - b2 * b4
        bracket2 = b3 * b4 * b8 + b2 * b6 * b7 - b1 * b6 * b8 - b3 * b5 * b7
        full, inner = bracket1 * full + bracket2 * inner, bracket1 * inner
    return float(full) if M.ndim == 2 else full


def jacobian_closed_form_arrays(params: GroupParams, usq, eta):
    """Closed-form chart Jacobian from block norms; vectorized and positive."""
    return _chart_jet(params, np.asarray(usq, dtype=float), np.asarray(eta, dtype=float))[2]


def jacobian_comparison_arrays(params: GroupParams, usq, eta):
    """Power-law comparison quantity for J:
    |eta|^{2n+2} (pi-|eta|)^{2 k_l - 1} (|u'|^2 (pi-|eta|) + |u_l|^2)."""
    _, gap, head, _ = _region_quantities(params, usq, eta)
    return (
        np.abs(np.asarray(eta, dtype=float)) ** (2 * params.n + 2)
        * gap ** (2 * params.k[-1] - 1)
        * (head * gap + np.asarray(usq, dtype=float)[..., -1])
    )


# ---------------------------------------------------------------------------
# Regions and piecewise comparison quantities
# ---------------------------------------------------------------------------

def _region_quantities(params, usq, eta):
    usq = np.asarray(usq, dtype=float)
    eta = np.asarray(eta, dtype=float)
    Usq = speed_sq_arrays(params, usq)
    gap = math.pi - np.abs(eta)
    head = usq[..., :-1].sum(axis=-1) if params.l > 1 else np.zeros(eta.shape)
    crowd = head * gap**2 + usq[..., -1] * gap
    return Usq, gap, head, crowd


def classify_region_arrays(params: GroupParams, usq, eta):
    """Labels 1/2/3 on the complement of the unit ball (U|eta| >= 1)."""
    Usq, gap, head, crowd = _region_quantities(params, usq, eta)
    eta = np.asarray(eta, dtype=float)
    if np.any(Usq * eta**2 < 1.0):
        raise PolarDomainError("region labels are defined on U|eta| >= 1 only")
    out = np.full(np.asarray(crowd).shape, 3, dtype=np.int8)
    out = np.where(crowd > SIZE_SPLIT, 2, out)
    out = np.where(np.abs(eta) < ANGLE_SPLIT, 1, out)
    return out


def _pj_cases(params: GroupParams, usq, eta):
    """The p * J comparison formulas: (wide-angle value, narrow-angle value,
    wide mask), the narrow value already split on the crowd size."""
    usq = np.asarray(usq, dtype=float)
    eta = np.asarray(eta, dtype=float)
    Usq, gap, head, crowd = _region_quantities(params, usq, eta)
    unorm = np.sqrt(usq.sum(axis=-1))
    ulsq = usq[..., -1]
    kl = params.k[-1]
    gauss = np.exp(-Usq * eta**2 / 4.0)
    case1 = unorm * np.abs(eta) ** (2 * params.n + 1) * gauss
    case2 = np.sqrt(head * gap + ulsq) * gap ** (kl - 0.5) * gauss
    case3 = (
        (ulsq + np.sqrt(head) + np.sqrt(ulsq) * gap) ** (kl - 1)
        * gap ** (2 * kl - 1)
        * (head * gap + ulsq)
        * gauss
    )
    return case1, np.where(crowd >= SIZE_SPLIT, case2, case3), gap >= ANGLE_MARGIN


def pj_estimate_arrays(params: GroupParams, usq, eta):
    """Piecewise comparison quantity for p * J on U|eta| >= 1."""
    wide_value, narrow_value, wide = _pj_cases(params, usq, eta)
    return np.where(wide, wide_value, narrow_value)


# ---------------------------------------------------------------------------
# Ray integral
# ---------------------------------------------------------------------------

def _ray_edges(eta, decay, v_hi, panels=28):
    """Panel edges on [1, v_hi]: geometric from the left to resolve the
    Gaussian decay in v, geometric into the right endpoint (where either
    the Jacobian vanishes or the integrand is already negligible)."""
    span = v_hi - 1.0
    w0 = min(span / 8.0, 1.0 / (1.0 + decay))
    left = [1.0]
    w = w0
    while left[-1] + w < 1.0 + 0.75 * span and len(left) < panels // 2 + 1:
        left.append(left[-1] + w)
        w *= 1.7
    right = [v_hi]
    w = span / 50.0
    while right[-1] - w > left[-1] and len(right) < panels // 2 + 1:
        right.append(right[-1] - w)
        w *= 1.7
    edges = np.unique(np.concatenate([left, right[::-1]]))
    return edges


_RAY_TAIL_MARGIN = 40.0  # log-units; e^-40 relative truncation of the ray
_GAUSS10 = np.polynomial.legendre.leggauss(10)  # per-panel rule on the rays
_RAY_BLOCK = 250  # rays per block of node temporaries: a bounded working set


def ray_integrals(params: GroupParams, u_flat, eta, spec=None):
    """Integrals of p*J along R dilation rays against their comparison values.

    u_flat (R, 2n) and eta (R,) are chart coordinates.  Computes
    int_1^{pi/|eta|} p(Psi(u, v eta)) J(u, v eta) dv by composite Gauss
    panels (kernel values from quadrature, J in closed form) and returns a
    dict of (R,) arrays: the integral, the right side
    p(u,eta) J(u,eta) / (|u|^2 eta^2), their ratio, error estimates and the
    region labels 1/2/3.

    Each ray is truncated where the Gaussian factor e^{-U^2 eta^2 v^2/4}
    has fallen forty log-units below its value at v = 1: past that point
    the integrand cannot contribute, while kernel evaluation degrades (the
    top block recollapses toward z_l = 0 and absolute quadrature noise
    would swamp the exponentially small true values).  The truncated part
    enters the error estimate through the analytic Gaussian bound.

    One `kernel_zsq` call takes every ray node, at its chart angle v eta,
    and every v = 1 point, ray by ray in order of |eta|, filled in blocks
    of `_RAY_BLOCK` rays, which bound the temporaries.
    `np.add.reduceat` sums each ray's nodes.  A ray
    outside the chart (u_l = 0, or |eta| not in (0, pi)) raises
    PolarDomainError.
    """
    spec = spec or QuadratureSpec(tol=1e-9)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    usq = block_norms_sq_flat(params, np.asarray(u_flat, dtype=float)).reshape(eta.size, params.l)
    _check_chart_domain(usq, eta)
    vmax = math.pi / np.abs(eta)
    decay = speed_sq_arrays(params, usq) * eta * eta
    v_hi = np.minimum(vmax, np.sqrt(1.0 + 4.0 * _RAY_TAIL_MARGIN / np.maximum(decay, 1e-12)))
    by_eta = np.argsort(np.abs(eta), kind="stable")
    edges = [_ray_edges(eta[i], decay[i], v_hi[i]) for i in by_eta]
    sizes = np.array([(e.size - 1) * _GAUSS10[0].size for e in edges], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    nodes = int(sizes.sum())
    # ray nodes first, then the v = 1 points
    zsq, tv, angle = np.empty((nodes + eta.size, params.l)), *np.empty((2, nodes + eta.size))
    jw = np.empty(nodes)
    for s in range(0, eta.size, _RAY_BLOCK):
        rules = [_panel_rule(e, *_GAUSS10) for e in edges[s : s + _RAY_BLOCK]]
        v, w = (np.concatenate(part) for part in zip(*rules))
        owner = np.repeat(by_eta[s : s + _RAY_BLOCK], sizes[s : s + _RAY_BLOCK])
        blk = slice(starts[s], starts[s] + v.size)
        angle[blk] = v * eta[owner]
        zsq[blk], tv[blk], jw[blk] = _chart_jet(params, usq[owner], angle[blk])
        jw[blk] *= w
        del rules, v, w, owner  # the kernel call below sets the peak memory
    angle[nodes:] = eta[by_eta]
    zsq[nodes:], tv[nodes:], J0 = _chart_jet(params, usq[by_eta], angle[nodes:])
    pv, perr = kernel_zsq(params, 1.0, zsq, tv, spec, theta=angle)
    back = np.argsort(by_eta)  # each ray's place in order of |eta|
    integral = np.add.reduceat(pv[:nodes] * jw, starts)[back]
    int_err = np.add.reduceat(perr[:nodes] * np.abs(jw), starts)[back]
    p0, p0err, J0 = pv[nodes:][back], perr[nodes:][back], J0[back]

    # Gaussian bound on each dropped tail, relative to the v = 1 scale
    int_err += np.where(
        v_hi < vmax, p0 * J0 * (vmax - v_hi) * math.exp(-_RAY_TAIL_MARGIN), 0.0
    )
    rhs = p0 * J0 / (usq.sum(axis=-1) * eta * eta)
    return {
        "integral": integral,
        "integral_error": int_err,
        "rhs": rhs,
        "ratio": integral / rhs,
        "p": p0,
        "J": J0,
        "kernel_rel_error": p0err / p0,
        "region": classify_region_arrays(params, usq, eta),
        "v_truncated_at": v_hi,
    }


def ray_integral_check(params: GroupParams, u_flat, eta, spec=None):
    """`ray_integrals` for one ray, u_flat (2n,) and eta a float: the same
    keys as scalars, with the region as its name ("R1", "R2" or "R3")."""
    out = ray_integrals(params, np.reshape(u_flat, (1, -1)), np.array([eta]), spec)
    out = {key: float(val[0]) for key, val in out.items()}
    out["region"] = f"R{int(out['region'])}"
    return out


# ---------------------------------------------------------------------------
# Chart checks
# ---------------------------------------------------------------------------

def check_change_of_variables(params: GroupParams) -> VerificationReport:
    """Chart pushforward test, row by row in the block norms zeta_j = |z_j|^2:
    the integral of F against the Haar measure must equal the integral of
    F(Psi) J over the chart coordinates.

    F is a product of C^2 profiles in each zeta_j and in t, supported at
    positive t with the top block away from zero.  Since
    rho^{2k-1} d rho = zeta^{k-1} d zeta / 2, Haar measure is
    prod_j (S_{k_j}/2) zeta_j^{k_j-1} d zeta_j dt; at fixed eta the chart
    sends |u_j|^2 to zeta_j = fac_j |u_j|^2, fac_j = 4 sin^2(a_j eta), so
    the chart measure is the same zeta factors times
    d eta / prod_j fac_j^{k_j}.  Each row of an 8-node Gauss rule per block
    over F's zeta support compares

        direct: int F(zeta, t) dt,
        chart:  int F(Psi) J(zeta/fac, eta) / prod_j fac_j^{k_j} d eta,

    the chart side by one 24-node panel between theta(zeta, tc - ts) and
    theta(zeta, tc + ts), where the chart's t meets F's support.  The
    direct rules are exact (F is a polynomial of degree 6 in zeta and in t
    on its support), so the rows agree to rounding exactly when
    J / prod_j fac_j^{k_j} is d t / d eta at fixed zeta.
    """
    zc = np.full(params.l, 0.6)
    zc[-1] = 1.4
    zs_half = np.full(params.l, 0.5)
    zs_half[-1] = 0.9
    tc, ts = 1.0, 0.7

    def profile(x):
        w = np.clip(1.0 - x**2, 0.0, None)
        return w**3

    def F(zsq, t):
        out = profile((t - tc) / ts)
        for j in range(params.l):
            out = out * profile((zsq[..., j] - zc[j]) / zs_half[j])
        return out

    gauss8 = np.polynomial.legendre.leggauss(8)
    axes, wts = [], []
    for j, kj in enumerate(params.k):
        nodes, weights = _panel_rule([zc[j] - zs_half[j], zc[j] + zs_half[j]], *gauss8)
        axes.append(nodes)
        wts.append(weights * 0.5 * _sphere_surface(kj) * nodes ** (kj - 1))
    zeta, w_row = _tensor_rule(axes, wts)  # (R, l), (R,)
    t_nodes, t_wts = _panel_rule([tc - ts, tc + ts], *gauss8)
    direct_rows = F(zeta[:, None, :], t_nodes) @ t_wts

    th = solve_theta_arrays(params, zeta[:, None, :], np.array([tc - ts, tc + ts]))[0]
    half = 0.5 * (th[:, 1] - th[:, 0])
    x, w = np.polynomial.legendre.leggauss(24)
    eta = 0.5 * (th[:, :1] + th[:, 1:]) + half[:, None] * x  # (R, 24)
    fac = 4.0 * np.sin(eta[..., None] * np.asarray(params.a)) ** 2
    usq = zeta[:, None, :] / fac
    zsq, t, jac = _chart_jet(params, usq, eta)
    vals = F(zsq, t) * jac
    chart_rows = half * ((vals / np.prod(fac ** np.asarray(params.k), axis=-1)) @ w)

    direct, chart = float(w_row @ direct_rows), float(w_row @ chart_rows)
    rel = abs(chart - direct) / abs(direct)
    row_rel = float(np.max(np.abs(chart_rows - direct_rows) / direct_rows))
    rep = VerificationReport(
        identifier="change-of-variables",
        config={"group": params.label()},
        stats={"direct": direct, "chart": chart, "rel_difference": rel, "row_rel_difference_max": row_rel},
    )
    rep.require(rel <= 1e-10 and row_rel <= 1e-10, "pushforward integral mismatch beyond rounding")
    return rep


def sample_exterior_cloud(params: GroupParams, count: int, seed: int):
    """Sample (u_flat, eta) on U|eta| >= 1 covering all three regions.

    Region shares are roughly 60/15/25 for R1/R2/R3.  R2 points are drawn
    near the smallest-distance corner of that region (|eta| just above
    pi/4, crowd slightly above the split).  Draws below U|eta| = 1 or past
    their region's quota are rejected and counted in the returned
    diagnostics.
    """
    rng = philox(seed, 31)
    n2 = 2 * params.n
    quota = {1: int(0.6 * count), 2: int(0.15 * count)}
    quota[3] = count - quota[1] - quota[2]
    got = {1: 0, 2: 0, 3: 0}
    rejected = 0
    u_rows, eta_rows, labels = [], [], []

    def _unit_u(top_heavy=False):
        w = rng.standard_normal(n2)
        if top_heavy:
            w[: -2 * params.k[-1]] *= 0.05
        # keep the top block well away from zero
        top = w[-2 * params.k[-1] :]
        if np.sqrt(np.sum(top**2)) < 0.1:
            top[0] += 0.5
        return w / np.sqrt(np.sum(w**2))

    while sum(got.values()) < count:
        region = next(r for r in (1, 2, 3) if got[r] < quota[r])
        if region == 1:
            eta = rng.uniform(0.08, ANGLE_SPLIT * 0.98)
            target_U = rng.uniform(1.02, 5.0) / eta
            w = _unit_u()
        elif region == 2:
            eta = rng.uniform(ANGLE_SPLIT * 1.02, ANGLE_SPLIT * 1.12)
            w = _unit_u(top_heavy=True)
            wsq = block_norms_sq_flat(params, w)
            gap = math.pi - eta
            crowd_unit = (wsq[:-1].sum() * gap + wsq[-1]) * gap
            scale_sq = rng.uniform(1.02, 1.3) * SIZE_SPLIT / crowd_unit
            target_U = math.sqrt(scale_sq * speed_sq_arrays(params, wsq))
        else:
            eta = rng.uniform(ANGLE_SPLIT * 1.05, 3.05)
            target_U = rng.uniform(1.02, 4.0) / eta
            w = _unit_u()
        eta = float(eta * rng.choice([-1.0, 1.0]))
        wsq = block_norms_sq_flat(params, w)
        u = w * target_U / math.sqrt(speed_sq_arrays(params, wsq))
        usq = block_norms_sq_flat(params, u)
        if speed_sq_arrays(params, usq) * eta**2 < 1.0:
            rejected += 1
            continue
        label = int(classify_region_arrays(params, usq, np.asarray(eta)))
        if got.get(label, quota.get(label, 0)) >= quota[label]:
            rejected += 1
            continue
        got[label] += 1
        u_rows.append(u)
        eta_rows.append(eta)
        labels.append(label)
        if rejected > 200 * count:
            raise RuntimeError("exterior cloud sampler rejection rate too high")
    return (
        np.asarray(u_rows),
        np.asarray(eta_rows),
        np.asarray(labels, dtype=np.int8),
        {"rejected": rejected, "per_region": dict(sorted(got.items()))},
    )


def path_velocity(params: GroupParams, u_flat, eta, s):
    """Horizontal velocity coefficients (cX, cY per pair) of s -> Psi(u, s eta)
    for one chart point, u_flat (2n,) and eta a float: eta times the z rows
    of the last column of `jacobian_matrix_flat` at s eta.

    Returns an array (..., 2n) ordered like the horizontal frame.  Its
    Euclidean norm is the constant U |eta|.
    """
    return eta * jacobian_matrix_flat(params, u_flat, np.asarray(s, dtype=float) * eta)[..., :-1, -1]


def check_horizontal_rays(params: GroupParams, u_flat, eta) -> VerificationReport:
    """Closed-form check that the rays of a chart cloud, u_flat (R, 2n) and
    eta (R,), are horizontal at speed U|eta|.  The ray velocity
    v = eta dPsi/deta has z-entries c; its t-entry must be c dotted with the
    left frame's t-coefficients at Psi(u, eta) (for every f, d/ds f(Psi)
    and c . (Xf, Yf) differ by d_t f times the mismatch), and |c| must be
    U|eta|, both to 1e-10 relative.  PolarDomainError off the chart.  The
    t-entry is eta dt/deta = eta 2 sum_j a_j^2 |z_j|^2, read from the image's
    block norms: the matrix's 1 - cos 2 a_j eta would lose eps/(a_j eta)^2.
    The frame side cancels one order of eta, about eps/|eta| (2e-11 at
    |eta| = 1e-5).
    """
    u_flat = np.asarray(u_flat, dtype=float)
    eta = np.asarray(eta, dtype=float)
    usq = block_norms_sq_flat(params, u_flat)
    _check_chart_domain(usq, eta)
    c = eta[..., None] * jacobian_matrix_flat(params, u_flat, eta)[..., :-1, -1]
    vt = 2.0 * eta * (_chart_jet(params, usq, eta)[0] @ np.square(params.a))
    t_coeffs = horizontal_components(params, np.eye(params.dim)[-1], psi_flat(params, u_flat, eta))
    t_err = float(np.max(np.abs(vt - np.sum(c * t_coeffs, axis=-1)) / np.abs(vt)))
    Ueta = np.sqrt(speed_sq_arrays(params, usq)) * np.abs(eta)
    speed_err = float(np.max(np.abs(np.sqrt(np.sum(c**2, axis=-1)) - Ueta) / Ueta))
    rep = VerificationReport(
        identifier="horizontal-rays",
        config={"group": params.label(), "rays": int(eta.size)},
        stats={"t_rate_rel_error_max": t_err, "speed_rel_error_max": speed_err},
    )
    rep.require(t_err <= 1e-10, "ray velocity leaves the horizontal frame")
    rep.require(speed_err <= 1e-10, "horizontal speed must equal U|eta|")
    return rep
