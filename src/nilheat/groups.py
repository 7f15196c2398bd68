"""Nonisotropic Heisenberg groups: parameters, points, group law, vector fields.

The group H(K, A) is the product of complex blocks C^{k_1} x ... x C^{k_l}
with a real center coordinate t.  Multiplication twists t by a weighted
symplectic form,

    (z, t) (z', t') = (z + z', t + t' + 2 sum_i a_i Im<z_i, z_i'>),

where the complex inner product conjugates its *second* argument,
<w, w'> = sum_k w_k conj(w'_k).  With that convention the left-invariant
horizontal frame is

    X_{i,j} = d/dx_{i,j} + 2 a_i y_{i,j} d/dt,
    Y_{i,j} = d/dy_{i,j} - 2 a_i x_{i,j} d/dt,

and the right-invariant frame flips the sign of the t-coefficients.  The
opposite conjugation convention would flip the sign of the twist and break
these field formulas, which is why the convention is fixed here once and
used everywhere.

Points are flat coordinate arrays with layout
[x_{1,1}, y_{1,1}, ..., x_{l,k_l}, y_{l,k_l}, t] (trailing axis of length
2n+1), which is also the serialization order, and every quantity has one
body over such arrays that broadcasts over leading axes; a single point is
an array of shape (2n+1,).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroupParams",
    "multiply_flat",
    "inverse_flat",
    "dilate_flat",
    "block_norms_sq_flat",
    "horizontal_components",
    "apply_field",
    "sub_laplacian",
]


@dataclass(frozen=True)
class GroupParams:
    """Group data (l, K, A) with the derived total block dimension n.

    Constraints: l >= 1, all k_i >= 1, and 0 < a_1 < ... < a_l = 1 strictly.
    """

    l: int
    k: tuple
    a: tuple
    n: int = field(init=False)

    def __post_init__(self):
        k = tuple(int(v) for v in self.k)
        a = tuple(float(v) for v in self.a)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "a", a)
        if self.l < 1:
            raise ValueError("need at least one block (l >= 1)")
        if len(k) != self.l or len(a) != self.l:
            raise ValueError("k and a must both have length l")
        if any(ki < 1 for ki in k):
            raise ValueError("all block sizes k_i must be >= 1")
        if a[-1] != 1.0:
            raise ValueError("the top coefficient a_l must equal 1")
        if any(a[i] <= 0.0 for i in range(self.l)):
            raise ValueError("coefficients a_i must be positive")
        if any(a[i] >= a[i + 1] for i in range(self.l - 1)):
            raise ValueError("coefficients must increase strictly: a_1 < ... < a_l")
        object.__setattr__(self, "n", sum(k))

    @property
    def dim(self) -> int:
        """Real dimension of the coordinate chart, 2n + 1."""
        return 2 * self.n + 1

    @property
    def pair_a(self) -> np.ndarray:
        """Coefficient a_i repeated k_i times, one entry per (x,y) pair."""
        return np.repeat(np.asarray(self.a), np.asarray(self.k))

    @property
    def pair_block(self) -> np.ndarray:
        """Block index (0-based) of each (x,y) pair."""
        return np.repeat(np.arange(self.l), np.asarray(self.k))

    def block_slices(self):
        """Pair-index slices, one per block."""
        out = []
        start = 0
        for ki in self.k:
            out.append(slice(start, start + ki))
            start += ki
        return out

    def label(self) -> str:
        ks = "-".join(str(v) for v in self.k)
        as_ = "-".join(repr(float(v)) for v in self.a)
        return f"l{self.l}_k{ks}_a{as_}"


def block_norms_sq_flat(params: GroupParams, coords) -> np.ndarray:
    """|z_i|^2 per block, shape (..., l).

    coords is either a flat point array (..., 2n+1) or a chart array of
    horizontal coordinates only (..., 2n); a trailing t is ignored.
    """
    coords = np.asarray(coords, dtype=float)
    n = params.n
    sq = coords[..., : 2 * n] ** 2
    pair_sq = sq[..., 0::2] + sq[..., 1::2]
    out = np.empty(coords.shape[:-1] + (params.l,))
    for i, sl in enumerate(params.block_slices()):
        out[..., i] = pair_sq[..., sl].sum(axis=-1)
    return out


# ---------------------------------------------------------------------------
# Group law.  These broadcast over leading axes.
# ---------------------------------------------------------------------------

def multiply_flat(params: GroupParams, A, B) -> np.ndarray:
    """Group product (z,t)(z',t') = (z+z', t+t' + 2 sum a_i Im<z_i, z_i'>)
    on flat points (..., 2n+1)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = params.n
    xa, ya = A[..., 0 : 2 * n : 2], A[..., 1 : 2 * n : 2]
    xb, yb = B[..., 0 : 2 * n : 2], B[..., 1 : 2 * n : 2]
    twist = 2.0 * np.sum(params.pair_a * (ya * xb - xa * yb), axis=-1)
    out = np.empty(np.broadcast_shapes(A.shape, B.shape))
    out[..., : 2 * n] = A[..., : 2 * n] + B[..., : 2 * n]
    out[..., 2 * n] = A[..., 2 * n] + B[..., 2 * n] + twist
    return out


def inverse_flat(coords) -> np.ndarray:
    return -np.asarray(coords, dtype=float)


def dilate_flat(params: GroupParams, r: float, coords) -> np.ndarray:
    """Anisotropic dilation (z, t) -> (r z, r^2 t), r > 0."""
    if r <= 0.0:
        raise ValueError("dilation factor must be positive")
    coords = np.asarray(coords, dtype=float)
    out = coords * r
    out[..., 2 * params.n] = coords[..., 2 * params.n] * r * r
    return out


# ---------------------------------------------------------------------------
# Horizontal frame.
# ---------------------------------------------------------------------------

def _field_coefficient(params: GroupParams, which, coords, right: bool):
    """Euclidean column and t-coefficient of the requested field at the
    given flat points: the field is d/d(column) + coefficient d/dt."""
    i, j, kind = which
    if not (0 <= i < params.l) or not (0 <= j < params.k[i]):
        raise ValueError(f"no field with block index ({i},{j})")
    if kind not in ("x", "y"):
        raise ValueError("field kind must be 'x' or 'y'")
    pair = sum(params.k[:i]) + j
    ai = params.a[i]
    x = coords[..., 2 * pair]
    y = coords[..., 2 * pair + 1]
    sgn = -1.0 if right else 1.0
    if kind == "x":
        return 2 * pair, sgn * 2.0 * ai * y
    return 2 * pair + 1, -sgn * 2.0 * ai * x


def apply_field(params: GroupParams, which, f, coords, right: bool = False):
    """Frame field `which` applied to f at flat points (..., 2n+1): exact
    directional derivative along X_{i,j} or Y_{i,j}, or along the
    right-invariant frame when `right` is set.

    `which` is (block, index, 'x'|'y'), 0-based.  Needs f.gradient.
    """
    coords = np.asarray(coords, dtype=float)
    col, coef = _field_coefficient(params, which, coords, right)
    grad = f.gradient(coords)
    return grad[..., col] + coef * grad[..., 2 * params.n]


def horizontal_components(params: GroupParams, euclid_grad, coords, which="left"):
    """Combine Euclidean partials into the 2n horizontal field values.

    euclid_grad and coords broadcast with trailing axis dim; returns an array
    with trailing axis 2n ordered (X_{1,1}, Y_{1,1}, ..., X_{l,k_l}, Y_{l,k_l}).
    `which` names the frame, "left" or "right".
    """
    if which not in ("left", "right"):
        raise ValueError("which must be 'left' or 'right'")
    euclid_grad = np.asarray(euclid_grad, dtype=float)
    coords = np.asarray(coords, dtype=float)
    n = params.n
    a = params.pair_a
    sgn = 1.0 if which == "left" else -1.0
    gt = euclid_grad[..., 2 * n]
    x = coords[..., 0 : 2 * n : 2]
    y = coords[..., 1 : 2 * n : 2]
    out = np.empty(np.broadcast_shapes(euclid_grad.shape, coords.shape)[:-1] + (2 * n,))
    out[..., 0::2] = euclid_grad[..., 0 : 2 * n : 2] + sgn * 2.0 * a * y * gt[..., None]
    out[..., 1::2] = euclid_grad[..., 1 : 2 * n : 2] - sgn * 2.0 * a * x * gt[..., None]
    return out


def sub_laplacian(params: GroupParams, f, coords):
    """Sum of squares of the left-invariant frame applied to f at flat
    points (..., 2n+1); one value per point.

    Expanding (X^2 + Y^2) through the chain rule gives, per pair,
    f_xx + f_yy + 4a (y f_xt - x f_yt) + 4a^2 (x^2 + y^2) f_tt.
    Needs f.hessian.
    """
    if getattr(f, "hessian", None) is None:
        raise ValueError("sub_laplacian needs a Hessian evaluator")
    coords = np.asarray(coords, dtype=float)
    H = f.hessian(coords)
    n = params.n
    a = params.pair_a
    ix = np.arange(0, 2 * n, 2)
    iy = ix + 1
    x, y = coords[..., ix], coords[..., iy]
    total = np.sum(H[..., ix, ix] + H[..., iy, iy], axis=-1)
    total += np.sum(4.0 * a * (y * H[..., ix, 2 * n] - x * H[..., iy, 2 * n]), axis=-1)
    total += np.sum(4.0 * a**2 * (x**2 + y**2), axis=-1) * H[..., 2 * n, 2 * n]
    return total
