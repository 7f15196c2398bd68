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


def _check_trailing(arr: np.ndarray, *sizes) -> np.ndarray:
    """Return arr, or raise ValueError if its trailing axis has none of the
    given lengths: a point of another group would otherwise be read as one
    of this group's."""
    if arr.ndim == 0 or arr.shape[-1] not in sizes:
        want = " or ".join(str(v) for v in sizes)
        raise ValueError(f"expected a trailing axis of length {want}, got shape {arr.shape}")
    return arr


def block_norms_sq_flat(params: GroupParams, coords) -> np.ndarray:
    """|z_i|^2 per block, shape (..., l).

    coords is either a flat point array (..., 2n+1) or a chart array of
    horizontal coordinates only (..., 2n); a trailing t is ignored.
    """
    coords = _check_trailing(np.asarray(coords, dtype=float), 2 * params.n, params.dim)
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
    on flat points (..., 2n+1); column-major when both operands are."""
    A = _check_trailing(np.asarray(A, dtype=float), params.dim)
    B = _check_trailing(np.asarray(B, dtype=float), params.dim)
    n = params.n
    # one column at a time: with one point against many rows, numpy's inner
    # loop over whole rows would run once per row.  The twist adds its n
    # pair terms from 0.0 in order, as np.sum does below 8 terms
    twist = 0.0
    for j, a in enumerate(params.pair_a):
        twist = twist + a * (A[..., 2 * j + 1] * B[..., 2 * j] - A[..., 2 * j] * B[..., 2 * j + 1])
    twist = 2.0 * twist
    fortran = A.flags.f_contiguous and B.flags.f_contiguous
    out = np.empty(np.broadcast_shapes(A.shape, B.shape), order="F" if fortran else "C")
    for c in range(2 * n):
        out[..., c] = A[..., c] + B[..., c]
    out[..., 2 * n] = A[..., 2 * n] + B[..., 2 * n] + twist
    return out


def inverse_flat(coords) -> np.ndarray:
    return -np.asarray(coords, dtype=float)


def dilate_flat(params: GroupParams, r, coords) -> np.ndarray:
    """Anisotropic dilation (z, t) -> (r z, r^2 t) of flat points (..., 2n+1);
    r > 0 is a number or an array that broadcasts against the leading axes."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):
        raise ValueError("dilation factor must be positive")
    coords = _check_trailing(np.asarray(coords, dtype=float), params.dim)
    out = coords * r[..., None]
    out[..., 2 * params.n] = coords[..., 2 * params.n] * r * r
    return out


# ---------------------------------------------------------------------------
# Horizontal frame.
# ---------------------------------------------------------------------------

def _frame(params: GroupParams, grad, x, y, sgn):
    """The frame fields applied through the chain rule: the X parts
    grad_x + sgn 2 a y grad_t and the Y parts grad_y - sgn 2 a x grad_t,
    each (..., n).

    grad is a Euclidean gradient (..., 2n+1); x and y (..., n) are the
    coordinates the t-coefficients read, those of the point itself for a
    frame field; sgn is +1 for the left frame and -1 for the right one.
    Every frame computation goes through here, so the twist convention is
    written once.
    """
    n = params.n
    a = params.pair_a
    gt = grad[..., 2 * n, None]
    X = grad[..., 0 : 2 * n : 2] + sgn * 2.0 * a * y * gt
    Y = grad[..., 1 : 2 * n : 2] - sgn * 2.0 * a * x * gt
    return X, Y


def horizontal_components(params: GroupParams, euclid_grad, coords, which="left"):
    """Combine Euclidean partials into the 2n horizontal field values.

    euclid_grad and coords broadcast with trailing axis dim; returns an array
    with trailing axis 2n ordered (X_{1,1}, Y_{1,1}, ..., X_{l,k_l}, Y_{l,k_l}).
    `which` names the frame, "left" or "right".
    """
    if which not in ("left", "right"):
        raise ValueError("which must be 'left' or 'right'")
    euclid_grad = _check_trailing(np.asarray(euclid_grad, dtype=float), params.dim)
    coords = _check_trailing(np.asarray(coords, dtype=float), params.dim)
    n = params.n
    sgn = 1.0 if which == "left" else -1.0
    X, Y = _frame(params, euclid_grad, coords[..., 0 : 2 * n : 2], coords[..., 1 : 2 * n : 2], sgn)
    out = np.empty(X.shape[:-1] + (2 * n,))
    out[..., 0::2] = X
    out[..., 1::2] = Y
    return out


def sub_laplacian(params: GroupParams, f, coords):
    """Sum of squares of the left-invariant frame applied to f at flat
    points (..., 2n+1); one value per point.

    The frame applied to the rows of the Hessian gives, in row c, every
    field applied to d/dc f.  A field's t-coefficient does not depend on
    the coordinates that field differentiates, so the frame applied once
    more, down those columns, has X_{i,j}^2 f and Y_{i,j}^2 f on its
    diagonal.  Needs f.hessian.
    """
    if getattr(f, "hessian", None) is None:
        raise ValueError("sub_laplacian needs a Hessian evaluator")
    coords = np.asarray(coords, dtype=float)
    H = f.hessian(coords)
    n = params.n
    x, y = coords[..., None, 0 : 2 * n : 2], coords[..., None, 1 : 2 * n : 2]
    X, Y = _frame(params, H, x, y, 1.0)  # (..., 2n+1, n)
    XX = _frame(params, np.swapaxes(X, -1, -2), x, y, 1.0)[0]
    YY = _frame(params, np.swapaxes(Y, -1, -2), x, y, 1.0)[1]
    return np.sum(np.diagonal(XX, axis1=-2, axis2=-1) + np.diagonal(YY, axis1=-2, axis2=-1), axis=-1)
