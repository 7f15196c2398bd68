"""Polar coordinates adapted to the dilation rays.

The change of variables sends (u, eta), with u_l != 0 and 0 < |eta| < pi,
to the group point

    z_j = (1 - exp(-2 i a_j eta)) u_j,
    t   = sum_j 2 a_j |u_j|^2 (2 a_j eta - sin(2 a_j eta)),

and the curve s -> Psi(u, s eta) is the length-minimizing horizontal path
from the origin: its horizontal speed is the constant U |eta| with
U = (4 sum a_j^2 |u_j|^2)^{1/2}, so d(Psi(u, eta)) = U |eta| and the
angle coordinate of Psi(u, eta) is exactly eta.

The Jacobian matrix is block sparse: 2x2 rotation-like diagonal blocks
bordered by one column (d/d eta) and one row (dt/du).  Its determinant
has the closed form

    J(u, eta) = sum_j [prod_{i != j} (2 - 2 cos 2 a_i eta)^{k_i}]
                * 8 a_j^2 |u_j|^2
                * (2 - 2 cos(2 a_j eta) - 2 a_j eta sin(2 a_j eta))
                * (2 - 2 cos 2 a_j eta)^{k_j - 1},

which the bordered-determinant recursion below reproduces and which is
positive and even in eta.  Small-angle evaluations of the cancellation-
prone factors use series.

The complement of the unit ball, U |eta| >= 1, splits into three regions
used by the ray-integral estimate:

    R1: |eta| < pi/4;
    R2: |eta| >= pi/4 and g = |u'|^2 (pi-|eta|)^2 + |u_l|^2 (pi-|eta|) > 100;
    R3: |eta| >= pi/4 and g <= 100,

with the auxiliary angle margin pi/8 entering the piecewise comparison
quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import distance_squared_arrays, solve_theta, Branch
from .groups import GroupParams, GroupPoint, block_norms_sq, horizontal_components
from .kernel import QuadratureSpec, _sphere_surface, kernel_zsq
from .reports import VerificationReport

__all__ = [
    "ANGLE_SPLIT",
    "SIZE_SPLIT",
    "ANGLE_MARGIN",
    "PolarDomainError",
    "PolarPoint",
    "psi",
    "psi_flat",
    "psi_inverse",
    "jacobian_matrix",
    "det_bordered",
    "jacobian_closed_form",
    "jacobian_closed_form_arrays",
    "jacobian_comparison_arrays",
    "classify_region",
    "classify_region_arrays",
    "kernel_estimate_polar",
    "pj_estimate",
    "pj_estimate_arrays",
    "ray_integral_check",
    "path_velocity",
    "horizontal_path_check",
    "cancellation_exponent_polar",
]

ANGLE_SPLIT = math.pi / 4.0  # splits R1 from R2/R3
SIZE_SPLIT = 100.0  # splits R2 from R3
ANGLE_MARGIN = math.pi / 8.0  # auxiliary margin in the piecewise estimates


class PolarDomainError(ValueError):
    """Point outside the polar chart (u_l = 0, eta outside (0, pi), ...)."""


@dataclass(frozen=True)
class PolarPoint:
    """Coordinates (u, eta) with u_l != 0 and 0 < |eta| < pi."""

    u: tuple
    eta: float

    def __post_init__(self):
        u = tuple(np.asarray(b, dtype=complex) for b in self.u)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "eta", float(self.eta))
        if not (0.0 < abs(self.eta) < math.pi):
            raise PolarDomainError("eta must satisfy 0 < |eta| < pi")
        if np.all(u[-1] == 0):
            raise PolarDomainError("top block u_l must be nonzero")

    def block_norms_sq(self) -> np.ndarray:
        return np.array([float(np.sum(b.real**2 + b.imag**2)) for b in self.u])

    @property
    def U(self) -> float:
        """(4 sum a_j^2 |u_j|^2)^{1/2} requires params; see speed()."""
        raise AttributeError("use speed(params, point) - U depends on the group")


def speed(params: GroupParams, p: PolarPoint) -> float:
    """U = (4 sum a_j^2 |u_j|^2)^{1/2}; path speed is U |eta|."""
    usq = p.block_norms_sq()
    return float(np.sqrt(4.0 * np.sum(np.asarray(params.a) ** 2 * usq)))


def _angle_factor_sq(w):
    """2 - 2 cos(2 w) = |1 - e^{-2iw}|^2, series-protected near 0."""
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < 1e-3
    direct = 2.0 - 2.0 * np.cos(2.0 * w)
    w2 = w * w
    series = 4.0 * w2 * (1.0 - w2 / 3.0 + 2.0 * w2 * w2 / 45.0)
    return np.where(small, series, direct)


def _vertical_factor(w):
    """2 w - sin(2 w), series-protected near 0."""
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < 0.03
    direct = 2.0 * w - np.sin(2.0 * w)
    w2 = w * w
    series = w * w2 * (4.0 / 3.0 - 4.0 * w2 / 15.0 + 8.0 * w2 * w2 / 315.0)
    return np.where(small, series, direct)


def _jacobian_corner_factor(w):
    """2 - 2 cos(2w) - 2 w sin(2 w) = (4/3) w^4 + O(w^6); positive on (0, pi)."""
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < 0.03
    direct = 2.0 - 2.0 * np.cos(2.0 * w) - 2.0 * w * np.sin(2.0 * w)
    w2 = w * w
    series = w2 * w2 * (4.0 / 3.0 - 16.0 * w2 / 45.0 + 4.0 * w2 * w2 / 105.0)
    return np.where(small, series, direct)


def psi_flat(params: GroupParams, u_flat, eta):
    """Vectorized chart map: u_flat (..., 2n), eta (...) -> flat (..., 2n+1)."""
    u_flat = np.asarray(u_flat, dtype=float)
    eta = np.asarray(eta, dtype=float)
    n = params.n
    a = params.pair_a
    w = eta[..., None] * a  # (..., n)
    C, S = np.cos(2.0 * w), np.sin(2.0 * w)
    re, im = u_flat[..., 0::2], u_flat[..., 1::2]
    shape = np.broadcast_shapes(u_flat.shape[:-1], eta.shape)
    out = np.empty(shape + (params.dim,))
    out[..., 0 : 2 * n : 2] = (1.0 - C) * re - S * im
    out[..., 1 : 2 * n : 2] = S * re + (1.0 - C) * im
    pair_sq = re**2 + im**2
    wb = eta[..., None] * np.asarray(params.a)
    usq = np.empty(shape + (params.l,))
    for i, sl in enumerate(params.block_slices()):
        usq[..., i] = pair_sq[..., sl].sum(axis=-1)
    out[..., 2 * n] = np.sum(
        2.0 * np.asarray(params.a) * usq * _vertical_factor(wb), axis=-1
    )
    return out


def psi(params: GroupParams, p: PolarPoint) -> GroupPoint:
    """Chart map Psi(u, eta) as a GroupPoint."""
    u_flat = np.concatenate(
        [np.stack([b.real, b.imag], axis=-1).reshape(-1) for b in p.u]
    )
    coords = psi_flat(params, u_flat, np.asarray(p.eta))
    return GroupPoint.from_flat(params, coords)


def psi_inverse(params: GroupParams, g: GroupPoint) -> PolarPoint:
    """Invert the chart: eta is the angle coordinate, u_j = z_j / (1 - e^{-2i a_j eta})."""
    zsq = block_norms_sq(g)
    if zsq[-1] == 0.0:
        raise PolarDomainError("chart inverse needs z_l != 0")
    if g.t == 0.0:
        raise PolarDomainError("chart inverse needs t != 0")
    sol = solve_theta(params, g)
    if sol.branch is Branch.ZL_ZERO_BOUNDARY:
        raise PolarDomainError("point is on the boundary branch")
    eta = sol.theta
    u = []
    for ai, b in zip(params.a, g.z):
        factor = 1.0 - np.exp(-2.0j * ai * eta)
        u.append(b / factor)
    return PolarPoint(tuple(u), eta)


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------

def jacobian_matrix(params: GroupParams, p: PolarPoint) -> np.ndarray:
    """Jacobian of the chart in coordinates (Re u, Im u, ..., eta)."""
    n = params.n
    dim = params.dim
    M = np.zeros((dim, dim))
    eta = p.eta
    pair = 0
    for i in range(params.l):
        ai = params.a[i]
        C, S = math.cos(2.0 * ai * eta), math.sin(2.0 * ai * eta)
        kap = 2.0 * ai * eta - S
        for j in range(params.k[i]):
            re = float(p.u[i][j].real)
            im = float(p.u[i][j].imag)
            r0, r1 = 2 * pair, 2 * pair + 1
            M[r0, r0] = 1.0 - C
            M[r0, r1] = -S
            M[r1, r0] = S
            M[r1, r1] = 1.0 - C
            M[r0, dim - 1] = 2.0 * ai * (S * re - C * im)
            M[r1, dim - 1] = 2.0 * ai * (S * im + C * re)
            M[dim - 1, r0] = 4.0 * ai * re * kap
            M[dim - 1, r1] = 4.0 * ai * im * kap
            pair += 1
    usq = p.block_norms_sq()
    a = np.asarray(params.a)
    M[dim - 1, dim - 1] = float(
        np.sum(4.0 * a**2 * usq * (1.0 - np.cos(2.0 * a * eta)))
    )
    return M


def _det_cofactor(M):
    m = M.shape[0]
    if m == 1:
        return float(M[0, 0])
    if m == 2:
        return float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    if m == 3:
        return float(
            M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
            - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
            + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
        )
    # Laplace expansion along the first row; only used for small dense
    # inner blocks, so the factorial cost never matters.
    total = 0.0
    sign = 1.0
    cols = np.arange(m)
    for c in range(m):
        if M[0, c] != 0.0:
            minor = M[1:][:, cols != c]
            total += sign * M[0, c] * _det_cofactor(minor)
        sign = -sign
    return float(total)


def _has_border_shape(M) -> bool:
    m = M.shape[0]
    if m < 4:
        return False
    return (
        not np.any(M[0, 2 : m - 1])
        and not np.any(M[1, 2 : m - 1])
        and not np.any(M[2 : m - 1, 0])
        and not np.any(M[2 : m - 1, 1])
    )


def _det_recursive(M):
    m = M.shape[0]
    if m <= 3:
        return _det_cofactor(M)
    if not _has_border_shape(M):
        return _det_cofactor(M)
    b1, b2, b3 = M[0, 0], M[0, 1], M[0, m - 1]
    b4, b5, b6 = M[1, 0], M[1, 1], M[1, m - 1]
    b7, b8 = M[m - 1, 0], M[m - 1, 1]
    Q = M[2:, 2:]
    bracket1 = b1 * b5 - b2 * b4
    bracket2 = b3 * b4 * b8 + b2 * b6 * b7 - b1 * b6 * b8 - b3 * b5 * b7
    total = bracket1 * _det_recursive(Q) if bracket1 != 0.0 else 0.0
    if bracket2 != 0.0:
        total += bracket2 * _det_recursive(M[2 : m - 1, 2 : m - 1])
    return float(total)


def det_bordered(M) -> float:
    """Determinant of a bordered block matrix by the two-bracket recursion.

    The matrix must couple rows/columns 1,2 only to each other and to the
    last column/row; the recursion peels that 2x2 block and reduces to the
    trailing principal minors, with cofactor formulas below size 4.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square matrix")
    if M.shape[0] >= 4 and not _has_border_shape(M):
        raise ValueError("matrix does not have the bordered block sparsity")
    return _det_recursive(M)


def jacobian_closed_form_arrays(params: GroupParams, usq, eta):
    """Closed-form chart Jacobian from block norms; vectorized and positive."""
    usq = np.asarray(usq, dtype=float)
    eta = np.asarray(eta, dtype=float)
    a = np.asarray(params.a)
    k = np.asarray(params.k)
    w = eta[..., None] * a  # (..., l)
    fac = _angle_factor_sq(w)  # 2 - 2 cos(2 a eta)
    corner = _jacobian_corner_factor(w)
    # prod_{i != j} fac_i^{k_i} * fac_j^{k_j - 1}, computed blockwise
    out = np.zeros(np.broadcast_shapes(usq.shape[:-1], eta.shape))
    for j in range(params.l):
        term = 8.0 * a[j] ** 2 * usq[..., j] * corner[..., j]
        for i in range(params.l):
            power = k[i] - 1 if i == j else k[i]
            if power:
                term = term * fac[..., i] ** power
        out = out + term
    return out


def jacobian_closed_form(params: GroupParams, p: PolarPoint) -> float:
    return float(jacobian_closed_form_arrays(params, p.block_norms_sq(), np.asarray(p.eta)))


def jacobian_comparison_arrays(params: GroupParams, usq, eta):
    """Power-law comparison quantity for J:
    |eta|^{2n+2} (pi-|eta|)^{2 k_l - 1} (|u'|^2 (pi-|eta|) + |u_l|^2)."""
    usq = np.asarray(usq, dtype=float)
    eta = np.asarray(eta, dtype=float)
    gap = math.pi - np.abs(eta)
    head = usq[..., :-1].sum(axis=-1) if params.l > 1 else np.zeros(eta.shape)
    return (
        np.abs(eta) ** (2 * params.n + 2)
        * gap ** (2 * params.k[-1] - 1)
        * (head * gap + usq[..., -1])
    )


# ---------------------------------------------------------------------------
# Regions and piecewise comparison quantities
# ---------------------------------------------------------------------------

def _region_quantities(params, usq, eta):
    usq = np.asarray(usq, dtype=float)
    eta = np.asarray(eta, dtype=float)
    a = np.asarray(params.a)
    Usq = 4.0 * np.sum(a**2 * usq, axis=-1)
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


def classify_region(params: GroupParams, p: PolarPoint) -> str:
    code = int(classify_region_arrays(params, p.block_norms_sq(), np.asarray(p.eta)))
    return f"R{code}"


def kernel_estimate_polar(params: GroupParams, usq, eta):
    """Piecewise comparison quantity for the kernel p_1 in polar coordinates."""
    usq = np.asarray(usq, dtype=float)
    eta = np.asarray(eta, dtype=float)
    Usq, gap, head, crowd = _region_quantities(params, usq, eta)
    unorm = np.sqrt(usq.sum(axis=-1))
    ulsq = usq[..., -1]
    kl = params.k[-1]
    gauss = np.exp(-Usq * eta**2 / 4.0)
    inside = Usq * eta**2 <= 1.0
    wide = gap >= ANGLE_MARGIN
    big = crowd >= SIZE_SPLIT
    case1 = gauss / np.maximum(unorm * np.abs(eta), 1e-300)
    case2 = gauss / np.maximum(np.sqrt(head * gap + ulsq) * gap ** (kl - 0.5), 1e-300)
    case3 = (ulsq + np.sqrt(head) + np.sqrt(ulsq) * gap) ** (kl - 1) * gauss
    out = np.where(wide, case1, np.where(big, case2, case3))
    return np.where(inside, 1.0, out)


def pj_estimate_arrays(params: GroupParams, usq, eta):
    """Piecewise comparison quantity for p * J on U|eta| >= 1."""
    usq = np.asarray(usq, dtype=float)
    eta = np.asarray(eta, dtype=float)
    Usq, gap, head, crowd = _region_quantities(params, usq, eta)
    unorm = np.sqrt(usq.sum(axis=-1))
    ulsq = usq[..., -1]
    kl = params.k[-1]
    gauss = np.exp(-Usq * eta**2 / 4.0)
    wide = gap >= ANGLE_MARGIN
    big = crowd >= SIZE_SPLIT
    case1 = unorm * np.abs(eta) ** (2 * params.n + 1) * gauss
    case2 = np.sqrt(head * gap + ulsq) * gap ** (kl - 0.5) * gauss
    case3 = (
        (ulsq + np.sqrt(head) + np.sqrt(ulsq) * gap) ** (kl - 1)
        * gap ** (2 * kl - 1)
        * (head * gap + ulsq)
        * gauss
    )
    return np.where(wide, case1, np.where(big, case2, case3))


def pj_estimate(params: GroupParams, p: PolarPoint) -> float:
    return float(pj_estimate_arrays(params, p.block_norms_sq(), np.asarray(p.eta)))


def cancellation_exponent_polar(params: GroupParams, usq, eta, h=1.0):
    """Oscillatory-cancellation budget of kernel quadrature at Psi(u, eta):
    (d^2 - |z|^2)/(4h) expressed in polar data."""
    usq = np.asarray(usq, dtype=float)
    eta = np.asarray(eta, dtype=float)
    a = np.asarray(params.a)
    Usq = 4.0 * np.sum(a**2 * usq, axis=-1)
    zsq = np.sum(usq * _angle_factor_sq(eta[..., None] * a), axis=-1)
    return (Usq * eta**2 - zsq) / (4.0 * h)


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


def ray_integral_check(params: GroupParams, p: PolarPoint, spec=None, points=10):
    """Integral of p*J along the dilation ray against its comparison value.

    Computes int_1^{pi/|eta|} p(Psi(u, v eta)) J(u, v eta) dv by composite
    Gauss panels (kernel values from quadrature, J in closed form) and
    returns a dict with the integral, the right side
    p(u,eta) J(u,eta) / (|u|^2 eta^2), their ratio, and error estimates.

    The ray is truncated where the Gaussian factor e^{-U^2 eta^2 v^2/4}
    has fallen forty log-units below its value at v = 1: past that point
    the integrand cannot contribute, while kernel evaluation degrades (the
    top block recollapses toward z_l = 0 and absolute quadrature noise
    would swamp the exponentially small true values).  The truncated part
    enters the error estimate through the analytic Gaussian bound.
    """
    spec = spec or QuadratureSpec(tol=1e-9)
    usq = p.block_norms_sq()
    a = np.asarray(params.a)
    Usq = 4.0 * float(np.sum(a**2 * usq))
    eta = p.eta
    vmax = math.pi / abs(eta)
    decay = Usq * eta * eta
    v_hi = min(vmax, math.sqrt(1.0 + 4.0 * _RAY_TAIL_MARGIN / max(decay, 1e-12)))
    edges = _ray_edges(eta, decay, v_hi)
    gl_x, gl_w = np.polynomial.legendre.leggauss(points)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    v = (mid[:, None] + half[:, None] * gl_x).ravel()
    wts = (half[:, None] * gl_w).ravel()

    etav = v * eta
    zsq = usq * _angle_factor_sq(np.multiply.outer(etav, a))
    tv = np.sum(2.0 * a * usq * _vertical_factor(np.multiply.outer(etav, a)), axis=-1)
    pv, perr = kernel_zsq(params, 1.0, zsq, tv, spec)
    Jv = jacobian_closed_form_arrays(params, np.broadcast_to(usq, (v.size, params.l)), etav)
    integral = float(np.sum(pv * Jv * wts))
    int_err = float(np.sum(perr * Jv * np.abs(wts)))

    z0 = usq * _angle_factor_sq(eta * a)
    t0 = float(np.sum(2.0 * a * usq * _vertical_factor(eta * a)))
    p0, p0err = kernel_zsq(params, 1.0, z0, np.asarray(t0), spec)
    J0 = float(jacobian_closed_form_arrays(params, usq, np.asarray(eta)))
    if v_hi < vmax:
        # Gaussian bound on the dropped tail, relative to the v = 1 scale
        int_err += float(p0) * J0 * (vmax - v_hi) * math.exp(-_RAY_TAIL_MARGIN)
    unorm_sq = float(usq.sum())
    rhs = float(p0) * J0 / (unorm_sq * eta * eta)
    ratio = integral / rhs
    return {
        "integral": integral,
        "integral_error": int_err,
        "rhs": rhs,
        "ratio": ratio,
        "p": float(p0),
        "J": J0,
        "kernel_rel_error": float(p0err / p0),
        "region": classify_region(params, p),
        "v_truncated_at": v_hi,
    }


# ---------------------------------------------------------------------------
# Horizontal path checks
# ---------------------------------------------------------------------------

def check_change_of_variables(params: GroupParams, spec=None) -> VerificationReport:
    """Chart pushforward test: integral of F against the Haar measure must
    equal the integral of F(Psi) J over the chart coordinates.

    F is a smooth block-radial bump supported at positive t with the top
    block away from zero, so its chart preimage is a bounded set with the
    angle coordinate strictly inside (0, pi).  Both sides then reduce to
    (l+1)-dimensional composite Gauss rules: the group side through the
    block-polar volume factors, the chart side through the same factors in
    u.  Agreement is limited only by quadrature error.
    """
    from .kernel import integrate_radial

    a = np.asarray(params.a)

    # block-radial bump: product of C^2 profiles in each |z_j|^2 and in t
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

    direct = integrate_radial(
        params,
        F,
        rho_max=np.sqrt(zc + zs_half) + 0.05,
        t_max=tc + ts + 0.05,
        points=12,
        scale=0.2,
    )

    # chart preimage bounds: angle range over the support corners, then
    # block radii from |u_j|^2 = |z_j|^2 / (2 - 2 cos(2 a_j eta))
    zsq_hi = zc + zs_half
    zsq_lo = np.maximum(zc - zs_half, 0.0)
    corners = []
    for mask in range(2**params.l):
        corner = np.where([(mask >> j) & 1 for j in range(params.l)], zsq_hi, zsq_lo)
        corners.append(corner)
    corners = np.asarray(corners)
    from .distance import solve_theta_arrays

    th, _, _ = solve_theta_arrays(
        params,
        np.tile(corners, (2, 1)),
        np.concatenate([np.full(corners.shape[0], tc - ts), np.full(corners.shape[0], tc + ts)]),
    )
    eta_lo, eta_hi = float(np.nanmin(th)) - 0.1, float(np.nanmax(th)) + 0.1
    eta_lo = max(eta_lo, 1e-3)
    if eta_hi >= math.pi - 0.1:
        raise RuntimeError("bump support reaches the chart boundary")

    # integrate over eta in slabs: the chart preimage of the support is a
    # curved region whose u-radii scale like 1/(a eta), so per-slab radial
    # bounds stay tight where a single global box would be astronomically
    # wasteful
    gl_x, gl_w = np.polynomial.legendre.leggauss(10)

    def _axis_nodes(lo, hi, panels):
        edges = np.linspace(lo, hi, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        return (mid[:, None] + half[:, None] * gl_x).ravel(), (half[:, None] * gl_w).ravel()

    n_slabs = max(24, int(math.ceil((eta_hi - eta_lo) / 0.05)))
    slab_edges = np.linspace(eta_lo, eta_hi, n_slabs + 1)
    chart = 0.0
    for s in range(n_slabs):
        e0, e1 = slab_edges[s], slab_edges[s + 1]
        w_ends = np.stack([e0 * a, e1 * a])
        fac_ends = _angle_factor_sq(w_ends)
        fac_min = fac_ends.min(axis=0)
        fac_max = fac_ends.max(axis=0)
        # the angle factor peaks at a_j eta = pi/2 inside a slab
        crosses = (w_ends[0] < math.pi / 2.0) & (w_ends[1] > math.pi / 2.0)
        fac_max = np.where(crosses, 4.0, fac_max)
        rho_lo = np.sqrt(zsq_lo / fac_max) * 0.98
        rho_hi = np.sqrt(zsq_hi / fac_min) * 1.02 + 1e-3
        axes, wts = [], []
        for j in range(params.l):
            nj, wj = _axis_nodes(float(rho_lo[j]), float(rho_hi[j]), 8)
            wj = wj * _sphere_surface(params.k[j]) * nj ** (2 * params.k[j] - 1)
            axes.append(nj)
            wts.append(wj)
        ne, we = _axis_nodes(float(e0), float(e1), 1)
        axes.append(ne)
        wts.append(we)
        mesh = np.meshgrid(*axes, indexing="ij")
        usq = np.stack([mesh[j] ** 2 for j in range(params.l)], axis=-1)
        eta = mesh[-1]
        zsq_chart = usq * _angle_factor_sq(eta[..., None] * a)
        t_chart = np.sum(2.0 * a * usq * _vertical_factor(eta[..., None] * a), axis=-1)
        vals = F(zsq_chart, t_chart) * jacobian_closed_form_arrays(params, usq, eta)
        w = wts[0]
        for ww in wts[1:]:
            w = np.multiply.outer(w, ww)
        chart += float(np.sum(vals * w))

    rel = abs(chart - direct) / max(abs(direct), 1e-300)
    rep = VerificationReport(
        identifier="change-of-variables",
        config={"group": params.label(), "eta_range": [eta_lo, eta_hi]},
        stats={"direct": direct, "chart": chart, "rel_difference": rel},
    )
    rep.require(rel <= 1e-4, "pushforward integral mismatch beyond quadrature error")
    return rep


def sample_exterior_cloud(params: GroupParams, count: int, seed: int, budget: float = 25.0):
    """Sample (u_flat, eta) on U|eta| >= 1 covering all three regions.

    Region shares are roughly 60/15/25 for R1/R2/R3.  Points are kept
    inside the kernel-quadrature cancellation budget; R2 points are drawn
    near the smallest-distance corner of that region (|eta| just above
    pi/4, crowd slightly above the split), which is where double-precision
    kernel evaluation remains well conditioned.  Rejected draws are
    counted in the returned diagnostics.
    """
    from .sampling import philox

    rng = philox(seed, 31)
    a = np.asarray(params.a)
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

    def _block_sq(u_flat):
        pair_sq = u_flat[0::2] ** 2 + u_flat[1::2] ** 2
        return np.array([pair_sq[sl].sum() for sl in params.block_slices()])

    while sum(got.values()) < count:
        region = next(r for r in (1, 2, 3) if got[r] < quota[r])
        if region == 1:
            eta = rng.uniform(0.08, ANGLE_SPLIT * 0.98)
            target_U = rng.uniform(1.02, 5.0) / eta
            w = _unit_u()
        elif region == 2:
            eta = rng.uniform(ANGLE_SPLIT * 1.02, ANGLE_SPLIT * 1.12)
            w = _unit_u(top_heavy=True)
            wsq = _block_sq(w)
            gap = math.pi - eta
            crowd_unit = (wsq[:-1].sum() * gap + wsq[-1]) * gap
            scale_sq = rng.uniform(1.02, 1.3) * SIZE_SPLIT / crowd_unit
            target_U = 2.0 * math.sqrt(scale_sq * float(np.sum(a**2 * wsq)))
        else:
            eta = rng.uniform(ANGLE_SPLIT * 1.05, 3.05)
            target_U = rng.uniform(1.02, 4.0) / eta
            w = _unit_u()
        eta = float(eta * rng.choice([-1.0, 1.0]))
        wsq = _block_sq(w)
        u = w * target_U / (2.0 * math.sqrt(float(np.sum(a**2 * wsq))))
        usq = _block_sq(u)
        if 4.0 * float(np.sum(a**2 * usq)) * eta**2 < 1.0:
            rejected += 1
            continue
        cexp = float(cancellation_exponent_polar(params, usq, np.asarray(eta)))
        if cexp > budget:
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


def polar_point_from_flat(params: GroupParams, u_flat, eta: float) -> PolarPoint:
    blocks = []
    off = 0
    for ki in params.k:
        seg = np.asarray(u_flat, dtype=float)[off : off + 2 * ki]
        blocks.append(seg[0::2] + 1j * seg[1::2])
        off += 2 * ki
    return PolarPoint(tuple(blocks), eta)


def path_velocity(params: GroupParams, p: PolarPoint, s):
    """Horizontal velocity coefficients (cX, cY per pair) of s -> Psi(u, s eta).

    Returns an array (..., 2n) ordered like the horizontal frame.  Its
    Euclidean norm is the constant U |eta|.
    """
    s = np.asarray(s, dtype=float)
    a = params.pair_a
    eta = p.eta
    u_flat = np.concatenate(
        [np.stack([b.real, b.imag], axis=-1).reshape(-1) for b in p.u]
    )
    re, im = u_flat[0::2], u_flat[1::2]
    w = 2.0 * a * np.multiply.outer(s, np.ones(params.n)) * eta
    sin, cos = np.sin(w), np.cos(w)
    out = np.empty(s.shape + (2 * params.n,))
    out[..., 0::2] = 2.0 * eta * a * (sin * re - cos * im)
    out[..., 1::2] = 2.0 * eta * a * (sin * im + cos * re)
    return out


def horizontal_path_check(params: GroupParams, p: PolarPoint, f, s_values=None) -> VerificationReport:
    """Check the chain rule along the ray, the speed, and the gradient bound.

    (a) d/ds f(Psi(u, s eta)) from the horizontal expansion matches central
        finite differences in s (1e-6 relative);
    (b) |d/ds f| <= U|eta| |grad f| pointwise (Cauchy-Schwarz);
    (c) the horizontal speed equals U|eta| for every s (1e-8), so the path
        length equals the distance of the endpoint.
    """
    if s_values is None:
        s_values = np.linspace(0.1, 1.0, 10)
    s_values = np.asarray(s_values, dtype=float)
    u_flat = np.concatenate(
        [np.stack([b.real, b.imag], axis=-1).reshape(-1) for b in p.u]
    )
    coords = psi_flat(params, u_flat, s_values * p.eta)
    vel = path_velocity(params, p, s_values)
    grad = f.gradient(coords)
    hgrad = horizontal_components(params, grad, coords, which="left")
    dds = np.sum(vel * hgrad, axis=-1)

    eps = 1e-6
    up = f.value(psi_flat(params, u_flat, (s_values + eps) * p.eta))
    dn = f.value(psi_flat(params, u_flat, (s_values - eps) * p.eta))
    fd = (up - dn) / (2.0 * eps)
    scale = np.maximum(np.max(np.abs(dds)), 1.0)
    fd_err = float(np.max(np.abs(dds - fd))) / scale

    sp = np.sqrt(np.sum(vel**2, axis=-1))
    Ueta = speed(params, p) * abs(p.eta)
    speed_err = float(np.max(np.abs(sp - Ueta))) / max(Ueta, 1e-300)

    gnorm = np.sqrt(np.sum(hgrad**2, axis=-1))
    cs_slack = float(np.max(np.abs(dds) - Ueta * gnorm))

    d2 = distance_squared_arrays(
        params,
        np.array([float(np.sum(b.real**2 + b.imag**2)) for b in psi(params, p).z]),
        psi(params, p).t,
    )
    len_err = abs(math.sqrt(float(d2)) - Ueta) / max(Ueta, 1e-300)

    rep = VerificationReport(
        identifier="horizontal-path",
        config={"group": params.label(), "eta": p.eta},
        stats={
            "dds_fd_rel_error": fd_err,
            "speed_rel_error": speed_err,
            "cauchy_schwarz_slack": cs_slack,
            "length_vs_distance_rel_error": len_err,
        },
    )
    rep.require(fd_err <= 1e-6, "ray derivative expansion vs finite differences")
    rep.require(speed_err <= 1e-8, "horizontal speed must equal U|eta|")
    rep.require(cs_slack <= 1e-10 * max(Ueta, 1.0), "gradient bound violated")
    rep.require(len_err <= 1e-8, "path length must equal the endpoint distance")
    return rep
