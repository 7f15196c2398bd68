"""Heat semigroup by diffusion Monte Carlo and kernel quadrature, plus the
inequality verification harness.

One body, `_semigroup_jet`, gives e^{h Delta} f at g and, when asked, its
horizontal gradient.  It checks the method and picks the rule once:

  mc          average over endpoints W of the horizontal diffusion: each
              coordinate pair's endpoint and Levy area from the Fourier
              series of its Brownian bridge (`_simulate_chunk`), exact in
              law but for the tail of the modes' squared sum, replaced by
              its mean.
  quadrature  integrate f(w) p_h(g^{-1} w) over a tensor grid covering
              f's support near g, with the kernel (and its partials, for
              the gradient) from one saddle-line pass over the nodes where
              f != 0 only.  It needs 2 sqrt(h) >= f's scale; a kernel
              narrower than f is the sample's regime, and the route
              raises ValueError there.

`semigroup_estimate` and `grad_semigroup_components` are views of it.  The
semigroup's h is one finite positive number, while the kernel entry points
take an h that broadcasts against the points, one time per point.
Disagreement between the routes beyond combined error bars is treated as
a build-stopping signal by the test suite.

Gradients of the semigroup are taken by differentiating under the
convolution: for fixed w, the left frame applied to g -> f(g . w) is the
frame of `groups` applied to the Euclidean gradient of f at g . w, with
its t-coefficients read at g - w instead of g (the right frame reads them
at g . w itself, which is the commutation identity).  At g = 0 they are
read at -w, which makes it the right-invariant frame applied to f at w.
On f's support grid the kernel carries the derivative instead:
X^{(g)} p_h(g^{-1} w) = -(X-hat p_h)(g^{-1} w).

All randomness is Philox counter-based keyed by (seed, stream, chunk index),
so the same spec draws the same samples bit for bit on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distance import distance_squared_arrays
from .groups import (
    GroupParams,
    _frame,
    block_norms_sq_flat,
    dilate_flat,
    horizontal_components,
    multiply_flat,
)
from .kernel import (
    QuadratureError,
    QuadratureSpec,
    _panel_rule,
    _tensor_rule,
    kernel_derivatives,
    kernel_points,
)
from .reports import VerificationReport
from .sampling import ball_bounding_box, philox, unit_ball_points

__all__ = [
    "DiffusionSpec",
    "sample_heat_points",
    "semigroup_estimate",
    "grad_semigroup_components",
    "ball_mean",
    "check_li_inequality",
    "check_commutation",
    "check_cheeger",
    "check_log_sobolev_poincare",
    "check_holder_corollary",
    "check_translation_dilation_reduction",
    "check_integration_by_parts",
    "TransformedField",
]


_PATH_CHUNK = 8192  # paths per RNG block
_BRIDGE_MODES = 16  # Fourier modes of each pair's Brownian bridge
# pi^2/6 - sum_{k <= P} k^-2: variance of the bridge modes past the last
_TAIL_VAR = math.pi**2 / 6.0 - sum(1.0 / k**2 for k in range(1, _BRIDGE_MODES + 1))
_GRID_NODE_CAP = 1 << 22  # nodes of one quadrature tensor grid


@dataclass(frozen=True)
class DiffusionSpec:
    """Horizontal diffusion sampler controls.

    paths: number of endpoints (>= 1e4 for acceptance runs);
    seed/stream: Philox key material.
    """

    paths: int = 10000
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("invalid diffusion spec")

    @property
    def steps(self) -> int:
        """The bridge-mode count P: the sampler's work per path, in the
        place of the steps it no longer takes."""
        return _BRIDGE_MODES

    def with_stream(self, stream: int) -> "DiffusionSpec":
        return replace(self, stream=stream)


def _simulate_chunk(params: GroupParams, h: float, spec: DiffusionSpec, idx: int, count: int):
    """One RNG block of diffusion endpoints; key = (seed, stream<<20 | idx).

    Each pair draws 2P + 5 standard normals: its endpoint (b1, b2), its
    bridge's cosine modes xi_{jk} (k <= P), the series tails zeta_j and Z.  With
    U_j = sum_k xi_{jk}/k + r zeta_j (r^2 = `_TAIL_VAR`) and
    V = sum_k (xi_{1k}^2 + xi_{2k}^2)/k^2 + 2 r^2, the pair's Levy area is
    S = (h/2 pi)(sqrt(V) Z - sqrt(2)(U_1 b2 - U_2 b1)): Gaussian given the
    modes, with Var S = h^2/4 exactly.  Only V's tail is replaced by its mean
    (a tail of variance about 4/(3 P^3)).
    """
    rng = philox(spec.seed, (spec.stream << 20) | idx)
    n, modes = params.n, _BRIDGE_MODES
    g = rng.standard_normal((count, n, 2 * modes + 5))
    inv_k = 1.0 / np.arange(1, modes + 1)
    xi1, xi2 = g[..., 2 : modes + 2], g[..., modes + 2 : 2 * modes + 2]
    r = math.sqrt(_TAIL_VAR)
    u1 = xi1 @ inv_k + r * g[..., -3]
    u2 = xi2 @ inv_k + r * g[..., -2]
    v = (xi1 * xi1 + xi2 * xi2) @ (inv_k * inv_k) + 2.0 * _TAIL_VAR
    b1, b2 = g[..., 0], g[..., 1]
    area = (h / (2.0 * math.pi)) * (np.sqrt(v) * g[..., -1] - math.sqrt(2.0) * (u1 * b2 - u2 * b1))
    out = np.empty((count, params.dim))
    out[:, 0 : 2 * n : 2] = math.sqrt(2.0 * h) * b1
    out[:, 1 : 2 * n : 2] = math.sqrt(2.0 * h) * b2
    out[:, 2 * n] = -8.0 * (area @ params.pair_a)
    return out


def _check_time(h):
    """ValueError unless the semigroup's time h is finite and positive."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"time parameter h must be finite and positive, got {h}")


def sample_heat_points(params: GroupParams, h: float, spec: DiffusionSpec) -> np.ndarray:
    """Endpoints of the horizontal diffusion, p_h distributed.

    The z marginal is exactly Gaussian (variance 2h per coordinate, so
    E|z|^2 = 4 n h) and each pair's Levy area has its exact variance; the
    law of t given z is exact but for the tail of the bridge's squared
    modes, which `_simulate_chunk` replaces by its mean.  The sample is
    column-major, so each coordinate is one contiguous column.
    """
    _check_time(h)
    out = np.empty((spec.paths, params.dim), order="F")
    for i, start in enumerate(range(0, spec.paths, _PATH_CHUNK)):
        stop = min(start + _PATH_CHUNK, spec.paths)
        out[start:stop] = _simulate_chunk(params, h, spec, i, stop - start)
    return out


# ---------------------------------------------------------------------------
# Derived scalar fields
# ---------------------------------------------------------------------------

def _mean_var(x, count=None, fill=0.0):
    """Sample mean and variance, as floats, of a `count`-row sample made of
    the values x and count - x.size rows equal to fill (count defaults to
    x.size, and then the pair is np.mean(x) and np.var(x) bit for bit).
    The variance is two-pass, the mean of the squared deviations, so it
    does not cancel as E x^2 - (E x)^2 does."""
    count = x.size if count is None else count
    rest = count - x.size
    mean = (float(np.sum(x)) + rest * fill) / count
    var = (float(np.sum((x - mean) ** 2)) + rest * (fill - mean) ** 2) / count
    return mean, var


def _mean_se(x, count=None, fill=0.0):
    """Sample mean and standard error of the sample of `_mean_var` (with
    count = x.size, np.mean(x) and np.std(x) / sqrt(x.size) bit for bit)."""
    count = x.size if count is None else count
    mean, var = _mean_var(x, count, fill)
    return mean, math.sqrt(var) / math.sqrt(count)


def _hgrad_power(params: GroupParams, grad, coords, power=1):
    """|grad f|^power in the left horizontal frame, from Euclidean partials."""
    comps = horizontal_components(params, grad, coords, "left")
    nrm = np.sqrt(np.sum(comps**2, axis=-1))
    return nrm if power == 1 else nrm**power


class TransformedField:
    """f composed with g' -> g . dilate(r, g'); value and gradient."""

    def __init__(self, params: GroupParams, f, g_flat, r: float):
        self.params = params
        self.f = f
        self.g_flat = np.asarray(g_flat, dtype=float)
        self.r = float(r)

    def _map(self, coords):
        return multiply_flat(self.params, self.g_flat, dilate_flat(self.params, self.r, coords))

    def support_box(self):
        """Preimage bound of f's support under g' -> g . dilate(r, g')."""
        params, r = self.params, self.r
        lo, hi = self.f.support_box()
        n = params.n
        z_lo = (lo[: 2 * n] - self.g_flat[: 2 * n]) / r
        z_hi = (hi[: 2 * n] - self.g_flat[: 2 * n]) / r
        twist = _twist_bound(params, self.g_flat, np.maximum(np.abs(z_lo), np.abs(z_hi)))
        t_lo = (lo[-1] - self.g_flat[-1] - r * twist) / (r * r)
        t_hi = (hi[-1] - self.g_flat[-1] + r * twist) / (r * r)
        return np.concatenate([z_lo, [t_lo]]), np.concatenate([z_hi, [t_hi]])

    def jet(self, coords, order=0):
        """[value] or [value, gradient] at coords, from one jet of f."""
        if order not in (0, 1):
            raise ValueError("jet order must be 0 or 1")
        parts = self.f.jet(self._map(coords), order)
        if order:
            n = self.params.n
            g = parts[1]
            # chain rule through v -> g . dilate(r, v): r times the left frame
            # with its t-coefficients read at g, and r^2 d/dt
            X, Y = _frame(self.params, g, self.g_flat[0 : 2 * n : 2], self.g_flat[1 : 2 * n : 2], 1.0)
            out = np.empty(g.shape)
            out[..., 0 : 2 * n : 2] = self.r * X
            out[..., 1 : 2 * n : 2] = self.r * Y
            out[..., 2 * n] = self.r * self.r * g[..., 2 * n]
            parts[1] = out
        return parts

    def value(self, coords):
        return self.jet(coords, 0)[0]

    def gradient(self, coords):
        return self.jet(coords, 1)[1]


# ---------------------------------------------------------------------------
# Convolution evaluation
# ---------------------------------------------------------------------------

def _twist_bound(params, g_flat, z_bound):
    """Bound on the center shift 2 sum_i a_i |Im<g_i, z'_i>| that a left
    translation by g adds, over z' whose coordinates satisfy
    |z'_c| <= z_bound[c] (Cauchy-Schwarz per block)."""
    g_norm = np.sqrt(block_norms_sq_flat(params, g_flat))
    z_norm = np.sqrt(block_norms_sq_flat(params, np.broadcast_to(z_bound, (2 * params.n,))))
    return float(np.sum(2.0 * np.asarray(params.a) * g_norm * z_norm))


def _check_grid_nodes(axis_sizes):
    """QuadratureError, before anything is allocated, when the tensor grid
    of these axis sizes would exceed `_GRID_NODE_CAP` nodes."""
    total = math.prod(int(size) for size in axis_sizes)
    if total > _GRID_NODE_CAP:
        raise QuadratureError(f"tensor grid needs {float(total):.3g} nodes, cap {_GRID_NODE_CAP}")


def _support_grid(params, f, grid_points, h, g_flat):
    """Composite tensor GL nodes/weights covering f's support box cut down
    to the kernel's effective reach around g (|z'| within ~10 sqrt(h),
    center coordinate within ~40 h plus the translation twist); over the
    whole box a small-h kernel spike would occupy a vanishing fraction and
    the tensor rule could not see it.  Axes longer than the shortest one
    get proportionally more panels.  Returns (None, None) when the
    intersection is empty (the convolution is then negligible at the
    working tolerance); raises QuadratureError above `_GRID_NODE_CAP` nodes.
    """
    lo, hi = f.support_box()
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    n = params.n
    reach_z = 10.0 * math.sqrt(h)
    lo[: 2 * n] = np.maximum(lo[: 2 * n], g_flat[: 2 * n] - reach_z)
    hi[: 2 * n] = np.minimum(hi[: 2 * n], g_flat[: 2 * n] + reach_z)
    reach_t = 40.0 * h + _twist_bound(params, g_flat, reach_z)
    lo[-1] = max(lo[-1], g_flat[-1] - reach_t)
    hi[-1] = min(hi[-1], g_flat[-1] + reach_t)
    if np.any(lo >= hi):
        return None, None
    extents = hi - lo
    base = float(np.min(extents))
    gl = np.polynomial.legendre.leggauss(grid_points)
    npan = np.maximum(1, np.ceil(extents / base - 1e-9).astype(int))
    _check_grid_nodes(npan * grid_points)
    rules = [_panel_rule(np.linspace(lo[d], hi[d], npan[d] + 1), *gl) for d in range(params.dim)]
    return _tensor_rule(*zip(*rules))


def _field_scale(f):
    scale = getattr(f, "scale", None)
    if scale is not None:
        return float(scale)
    lo, hi = f.support_box()
    return 0.5 * float(np.min(np.asarray(hi) - np.asarray(lo)))


def _chain_coefficients(params, g_flat, W):
    """x and y of g - w, each (N, n): the left frame applied to g -> f(g . w)
    reads its t-coefficients there.  The two halves are taken apart, since
    g - W over whole rows runs numpy's inner loop once per row."""
    n = params.n
    return g_flat[0 : 2 * n : 2] - W[:, 0 : 2 * n : 2], g_flat[1 : 2 * n : 2] - W[:, 1 : 2 * n : 2]


def _semigroup_jet(params, f, h, g_flat, order, method, dspec, qspec, grid_points):
    """[(value, se)] for order 0, [(value, se), (components, se)] for
    order 1: e^{h Delta} f at g and the horizontal components of its
    gradient, with se None on the grid.

    The rule is picked once.  mc draws the diffusion sample and takes the
    gradient by the chain rule on f's jet at g . W.  quadrature integrates
    f(w) p_h(g^{-1} w) over f's support grid (left translation preserves
    the measure), which needs the kernel at least as wide as f: below
    2 sqrt(h) = f's scale it raises ValueError before any grid is built.
    Order 1 takes p and X-hat p from one `kernel_derivatives` pass.  The
    kernel runs on the support-grid nodes where f != 0 only: with none,
    the result is zero without a kernel call.
    """
    _check_time(h)
    g_flat = np.asarray(g_flat, dtype=float)
    if method == "quadrature":
        scale = _field_scale(f)
        if 2.0 * math.sqrt(h) < scale:
            raise ValueError(
                f"quadrature needs 2 sqrt(h) >= f's scale {scale:.3g}, got h = {h:.3g}; "
                'use method="mc"'
            )
        zero = [(0.0, None), (np.zeros(2 * params.n), None)][: order + 1]
        nodes, wt = _support_grid(params, f, grid_points, h, g_flat)
        if nodes is None:
            return zero
        fval = f.value(nodes)
        rows = np.flatnonzero(fval)
        if not rows.size:
            return zero
        shifted = multiply_flat(params, -g_flat, nodes[rows])  # g^{-1} . w
        # p is zero off the rows, scattered so that the value sum keeps its
        # terms and their order; the gradient sum runs row by row along
        # axis 0, so leaving out the zero rows leaves its bits alone
        p = np.zeros(fval.size)
        if not order:
            p[rows] = kernel_points(params, h, shifted, qspec)[0]
            return [(float(np.sum(fval * p * wt)), None)]
        der = kernel_derivatives(params, h, shifted, qspec)
        p[rows] = der["p"]
        hat = horizontal_components(params, der["dp"], shifted, "right")
        grad = -np.sum((fval * wt)[rows, None] * hat, axis=0)
        return [(float(np.sum(fval * p * wt)), None), (grad, None)]
    if method != "mc":
        raise ValueError("method must be 'mc' or 'quadrature'")
    W = sample_heat_points(params, h, dspec)
    parts = f.jet(multiply_flat(params, g_flat, W), order)
    out = [_mean_se(parts[0])]
    if order:
        comps = np.empty((W.shape[0], 2 * params.n))
        coeffs = _chain_coefficients(params, g_flat, W)
        comps[:, 0::2], comps[:, 1::2] = _frame(params, parts[1], *coeffs, 1.0)
        se = np.std(comps, axis=0) / math.sqrt(W.shape[0])
        out.append((np.sum(comps * (1.0 / W.shape[0]), axis=0), se))
    return out


def semigroup_estimate(params, f, h, g_flat, method="mc", dspec=None, qspec=None, grid_points=16):
    """(value, se) of e^{h Delta} f at g; se is None for quadrature.  The
    rule is `_semigroup_jet`'s."""
    return _semigroup_jet(params, f, h, g_flat, 0, method, dspec, qspec, grid_points)[0]


def grad_semigroup_components(params, f, h, g_flat, method="mc", dspec=None, qspec=None, grid_points=16):
    """(components, se) of the horizontal gradient of e^{h Delta} f at g;
    se is None for quadrature.  The rule is `_semigroup_jet`'s."""
    return _semigroup_jet(params, f, h, g_flat, 1, method, dspec, qspec, grid_points)[1]


# ---------------------------------------------------------------------------
# Ball averages
# ---------------------------------------------------------------------------

def ball_mean(params: GroupParams, f, method="mc", count=200000, seed=7, grid_points=24):
    """Average of f over the unit ball {d < 1}.

    mc: rejection sampling in the bounding box; grid: midpoint tensor grid
    (the one-node Gauss rule on each cell) with the d < 1 indicator (the
    cell volume cancels in the mean).  Returns (mean, se); se is None for
    the grid route.
    """
    if method == "mc":
        kept = unit_ball_points(params, count, seed, 101)
    elif method == "grid":
        z_half, t_half = ball_bounding_box(params)
        midpoint = np.zeros(1), np.full(1, 2.0)
        halves = [z_half] * (2 * params.n) + [t_half]
        rules = [_panel_rule(np.linspace(-b, b, grid_points + 1), *midpoint) for b in halves]
        pts, _ = _tensor_rule(*zip(*rules))
        kept = pts[distance_squared_arrays(params, block_norms_sq_flat(params, pts), pts[:, -1]) < 1.0]
    else:
        raise ValueError("method must be 'mc' or 'grid'")
    vals = f.value(kept)
    if method == "mc":
        return _mean_se(vals)
    return float(np.mean(vals)), None


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------

def _take_rows(a, rows):
    """a[rows] for a sample a (N, dim), gathered one column at a time: the
    columns of a column-major sample are contiguous."""
    return a.T.take(rows, axis=1).T


def _gradient_case(params, f, g_flat, W, pts):
    """One (f, g) case on the samples W, pts = g . W: |grad e^{h D} f(g)|
    by the chain rule under the convolution, and |grad f| on the rows of
    pts inside f's support (it is zero on the other rows, which add
    nothing to the chain-rule sums)."""
    rows, (_, grad) = f.support_jet(pts, 1)
    cx, cy = _frame(params, grad, *_chain_coefficients(params, g_flat, _take_rows(W, rows)), 1.0)
    mx, my = np.sum(cx, axis=0) / W.shape[0], np.sum(cy, axis=0) / W.shape[0]
    return math.sqrt(float(np.sum(mx**2) + np.sum(my**2))), _hgrad_power(params, grad, _take_rows(pts, rows))


def check_li_inequality(params, family, points, h_values, dspec) -> VerificationReport:
    """Empirical constant sup |grad e^{h D} f(g)| / e^{h D}(|grad f|)(g).

    Denominators below ten Monte Carlo standard errors are excluded so the
    sup never divides noise by noise.
    """
    best = 0.0
    best_case = None
    ratios = []
    excluded = 0
    for hi, h in enumerate(h_values):
        W = sample_heat_points(params, h, dspec.with_stream(hi + 1))
        for gi, g_flat in enumerate(points):
            g_flat = np.asarray(g_flat, dtype=float)
            pts = multiply_flat(params, g_flat, W)
            for fi, f in enumerate(family):
                num, hnorm = _gradient_case(params, f, g_flat, W, pts)
                den, den_se = _mean_se(hnorm, W.shape[0])
                if den <= 10.0 * den_se:
                    excluded += 1
                    continue
                ratio = num / den
                ratios.append(ratio)
                if ratio > best:
                    best = ratio
                    best_case = {"f": fi, "g": gi, "h": h}
    rep = VerificationReport(
        identifier="gradient-commutation-bound",
        config={
            "group": params.label(),
            "family": len(family),
            "points": len(points),
            "h_values": list(map(float, h_values)),
            "paths": dspec.paths,
        },
        seed=dspec.seed,
        stats={
            "constant": best,
            "argmax": best_case,
            "ratio_mean": float(np.mean(ratios)) if ratios else None,
            "cases": len(ratios),
        },
        constant=best,
        exclusions=excluded,
    )
    rep.require(bool(ratios), "all cases excluded; nothing to report")
    rep.require(np.isfinite(best), "empirical constant must be finite")
    return rep


def check_commutation(params, f, h, g_flat, dspec) -> VerificationReport:
    """Right-frame commutation with the semigroup, on one diffusion sample W.

    Left side: the right frame applied to g -> e^{h D} f(g) by central
    finite differences along the frame flows (left translations), each
    semigroup value the mean of f over g' . W.  Right side: the semigroup
    applied to the right frame of f, one column mean each of the right
    frame of one gradient of f at g . W.  Every value reads the same W, so
    the finite differences see common random numbers.
    """
    g_flat = np.asarray(g_flat, dtype=float)
    eps = 1e-4
    W = sample_heat_points(params, h, dspec)
    pts = multiply_flat(params, g_flat, W)
    right = horizontal_components(params, f.gradient(pts), pts, "right")

    def mean_f(g):
        return float(np.mean(f.value(multiply_flat(params, g, W))))

    lhs_all, rhs_all, labels = [], [], []
    for i in range(params.l):
        for j in range(params.k[i]):
            for kind in ("x", "y"):
                column = 2 * (sum(params.k[:i]) + j) + (kind == "y")
                step = np.zeros(params.dim)
                step[column] = eps
                # right-frame flow = left translation by the step point
                g_plus = multiply_flat(params, step, g_flat)
                g_minus = multiply_flat(params, -step, g_flat)
                lhs_all.append((mean_f(g_plus) - mean_f(g_minus)) / (2.0 * eps))
                rhs_all.append(float(np.mean(right[:, column])))
                labels.append(f"{kind}{i}{j}")
    lhs_all = np.asarray(lhs_all)
    rhs_all = np.asarray(rhs_all)
    scale = max(float(np.max(np.abs(rhs_all))), 1e-6)
    errs = np.abs(lhs_all - rhs_all) / scale
    worst = float(np.max(errs))
    rep = VerificationReport(
        identifier="right-frame-commutation",
        config={"group": params.label(), "h": h},
        seed=dspec.seed,
        stats={"worst_rel_error": worst, "per_field": dict(zip(labels, errs.tolist()))},
    )
    rep.require(worst <= 1e-3, "commutation mismatch above 1e-3")
    return rep


def check_cheeger(params, family, dspec, ball_count=200000) -> VerificationReport:
    """Weighted L1 oscillation bounds: global, ball-only, and complement.

    global      E|f(W) - m_f| / E|grad f|(W)      (W ~ kernel at h = 1)
    ball        mean_B |f - m_f| / mean_B |grad f|
    complement  E[|f - m_f| 1_{d >= 1}] / E|grad f|(W)
    """
    W = sample_heat_points(params, 1.0, dspec.with_stream(9))
    zsqW = block_norms_sq_flat(params, W)
    outside = distance_squared_arrays(params, zsqW, W[:, -1]) >= 1.0
    n_outside = int(np.count_nonzero(outside))
    ball_pts = unit_ball_points(params, ball_count, dspec.seed, 909)
    nW, nB = W.shape[0], ball_pts.shape[0]

    sups = {"global": 0.0, "ball": 0.0, "complement": 0.0}
    argmax = dict.fromkeys(sups)  # the function index and scale that set each sup
    excluded = 0
    for fi, f in enumerate(family):
        # reductions run over the rows inside f's support; on the others
        # f and grad f vanish, so |f - m_f| = |m_f| there
        rW, (fW, grad_W) = f.support_jet(W, 1)
        den, den_se = _mean_se(_hgrad_power(params, grad_W, _take_rows(W, rW)), nW)
        if den <= 10.0 * den_se:
            excluded += 1
            continue
        rB, (fB, grad_B) = f.support_jet(ball_pts, 1)
        m_f = _mean_se(fB, nB)[0]
        devW = np.abs(fW - m_f)
        outside_rest = n_outside - int(np.count_nonzero(outside[rW]))
        ratios = {
            "global": _mean_se(devW, nW, abs(m_f))[0] / den,
            "complement": (float(np.sum(devW * outside[rW])) + outside_rest * abs(m_f)) / nW / den,
        }
        denB = _mean_se(_hgrad_power(params, grad_B, ball_pts[rB]), nB)[0]
        if denB > 0:
            ratios["ball"] = _mean_se(np.abs(fB - m_f), nB, abs(m_f))[0] / denB
        for key, ratio in ratios.items():
            if ratio > sups[key]:
                sups[key] = ratio
                argmax[key] = {"f": fi, "scale": f.scale}
    rep = VerificationReport(
        identifier="cheeger-family",
        config={"group": params.label(), "family": len(family), "paths": dspec.paths},
        seed=dspec.seed,
        stats={**sups, "argmax": argmax},
        constant=sups["global"],
        exclusions=excluded,
    )
    rep.require(all(np.isfinite(v) for v in sups.values()), "ratios must be finite")
    return rep


def _entropy_terms(x, m):
    """x log(x/m) - x + m >= 0, written through the difference x - m.

    Over a sample x with mean m these terms average to the entropy
    E x log x - m log m, but without subtracting two large means: near
    x = m each term is about (x - m)^2 / 2m and carries only its own
    rounding."""
    dx = x - m
    return x * np.log1p(dx / m) - dx


def check_log_sobolev_poincare(params, family, points, h_values, dspec) -> VerificationReport:
    """Empirical entropy and variance constants of the semigroup.

    entropy   [E phi^2 log phi^2 - E phi^2 log E phi^2] / (h E |grad f|^2)
    variance  E (phi - E phi)^2 / (h E |grad f|^2)

    with phi = f + c_f shifted positive (the shift changes neither side's
    gradient term and keeps the entropy well defined).  The entropy is the
    mean of the non-negative `_entropy_terms` of phi^2 around m2 = E phi^2
    and the variance the two-pass `_mean_var`, the rows outside f's support
    (phi = c_f) counted in closed form in both.
    """
    sup_ent = 0.0
    sup_var = 0.0
    excluded = 0
    cases = 0
    for hi, h in enumerate(h_values):
        W = sample_heat_points(params, h, dspec.with_stream(50 + hi))
        count = W.shape[0]
        for g_flat in points:
            pts = multiply_flat(params, np.asarray(g_flat, dtype=float), W)
            for f in family:
                shift = 0.5 + float(np.sum(np.abs(f.coeffs)))
                # reductions run over the rows inside f's support; phi = shift
                # and grad f = 0 on the others
                rows, (val, grad) = f.support_jet(pts, 1)
                den, den_se = _mean_se(_hgrad_power(params, grad, _take_rows(pts, rows), power=2), count)
                den *= h
                den_se *= h
                if den <= 10.0 * den_se:
                    excluded += 1
                    continue
                phi = val + shift
                phi2 = phi**2
                shift2 = shift * shift
                m2 = _mean_se(phi2, count, shift2)[0]
                ent = _mean_se(_entropy_terms(phi2, m2), count, float(_entropy_terms(shift2, m2)))[0]
                var = _mean_var(phi, count, shift)[1]
                sup_ent = max(sup_ent, ent / den)
                sup_var = max(sup_var, var / den)
                cases += 1
    rep = VerificationReport(
        identifier="log-sobolev-poincare",
        config={
            "group": params.label(),
            "family": len(family),
            "points": len(points),
            "h_values": list(map(float, h_values)),
            "paths": dspec.paths,
        },
        seed=dspec.seed,
        stats={"entropy_constant": sup_ent, "variance_constant": sup_var, "cases": cases},
        exclusions=excluded,
    )
    rep.require(np.isfinite(sup_ent) and np.isfinite(sup_var), "constants must be finite")
    return rep


def check_holder_corollary(params, family, points, h_values, dspec, constant) -> VerificationReport:
    """Exponent-2 consequence: |grad e^{hD} f| <= K (e^{hD} |grad f|^2)^{1/2}.

    Checked sample-wise with the supplied empirical constant K: the
    chain-rule gradient |grad e^{hD} f| against K times the quadratic mean
    of |grad f| over the same sample, within three standard errors.
    """
    worst_chain = -np.inf
    excluded = 0
    for hi, h in enumerate(h_values):
        W = sample_heat_points(params, h, dspec.with_stream(80 + hi))
        for g_flat in points:
            g_flat = np.asarray(g_flat, dtype=float)
            pts = multiply_flat(params, g_flat, W)
            for f in family:
                num, hnorm = _gradient_case(params, f, g_flat, W, pts)
                mean1, se1 = _mean_se(hnorm, W.shape[0])
                mean2, se2 = _mean_se(hnorm**2, W.shape[0])
                if mean1 <= 10.0 * se1:
                    excluded += 1
                    continue
                rms = math.sqrt(mean2)
                rms_se = 0.5 * se2 / max(rms, 1e-300)
                # chain: num <= K rms within error
                worst_chain = max(
                    worst_chain, (num - constant * rms) / (3.0 * constant * rms_se + 1e-300)
                )
    rep = VerificationReport(
        identifier="holder-consequence-p2",
        config={"group": params.label(), "constant": constant, "paths": dspec.paths},
        seed=dspec.seed,
        stats={"worst_chain_violation": worst_chain},
        exclusions=excluded,
    )
    rep.require(worst_chain <= 1.0, "gradient bound chain failed beyond 3 SE")
    return rep


def check_translation_dilation_reduction(params, f, h, g_flat, qspec=None, grid_points=17) -> VerificationReport:
    """Reduction of the semigroup to the origin at unit time.

    e^{h D} f(g) must equal e^{D} f_{g,h}(0) with
    f_{g,h}(g') = f(g . dilate(sqrt h, g')), and the gradients must match
    after the 1/sqrt(h) rescaling.  Evaluated by quadrature on both sides.
    """
    g_flat = np.asarray(g_flat, dtype=float)
    qspec = qspec or QuadratureSpec(tol=1e-8)

    def by_quadrature(field, time, point, points):
        """(value, horizontal gradient norm) of e^{time D} field at point,
        from one grid, one evaluation of the field and one kernel pass."""
        jet = _semigroup_jet(params, field, time, point, 1, "quadrature", None, qspec, points)
        (value, _), (comps, _) = jet
        return value, float(np.sqrt(np.sum(comps**2)))

    lhs, glhs = by_quadrature(f, h, g_flat, grid_points)
    # finer grid on the reduced side: under matched grids the two tensor
    # sums coincide identically, which would make the check vacuous
    moved = TransformedField(params, f, g_flat, math.sqrt(h))
    rhs, grhs = by_quadrature(moved, 1.0, np.zeros(params.dim), grid_points + 3)
    scale = max(abs(lhs), abs(rhs), 1e-12)
    value_err = abs(lhs - rhs) / scale
    gscale = max(glhs, grhs / math.sqrt(h), 1e-12)
    grad_err = abs(glhs - grhs / math.sqrt(h)) / gscale

    rep = VerificationReport(
        identifier="translation-dilation-reduction",
        config={"group": params.label(), "h": h, "grid_points": grid_points},
        stats={"value_rel_error": value_err, "grad_rel_error": grad_err},
    )
    rep.require(value_err <= 1e-3, "semigroup value reduction mismatch")
    rep.require(grad_err <= 1e-3, "semigroup gradient reduction mismatch")
    return rep


def check_integration_by_parts(params, f, qspec=None, grid_points=18) -> VerificationReport:
    """int (V f) p dm = -int f (V p) dm for every horizontal frame field V,
    both left and right invariant, with p the unit-time kernel.

    Both sides are integrals on f's unit-time `_support_grid` at the origin;
    the kernel and its partials come from the saddle-line quadrature, on the
    nodes inside f's support only (f and its gradient vanish on the others).
    """
    qspec = qspec or QuadratureSpec(tol=1e-9)
    pts, wt = _support_grid(params, f, grid_points, 1.0, np.zeros(params.dim))
    if pts is None:
        rep = VerificationReport(identifier="integration-by-parts", stats={"worst_rel_error": math.inf})
        rep.require(False, "f's support box lies outside the unit-time kernel's reach")
        return rep

    # f and its gradient vanish off the rows, and both sums run row by row
    # along axis 0, so the rows alone give them bit for bit
    rows, (fval, fgrad) = f.support_jet(pts, 1)
    pts, wt = pts[rows], wt[rows]
    der = kernel_derivatives(params, 1.0, pts, qspec)
    worst = 0.0
    details = {}
    for which in ("left", "right"):
        fcomp = horizontal_components(params, fgrad, pts, which)
        pcomp = horizontal_components(params, der["dp"], pts, which)
        lhs = np.sum(fcomp * (der["p"] * wt)[:, None], axis=0)
        rhs = -np.sum(pcomp * (fval * wt)[:, None], axis=0)
        scale = max(float(np.max(np.abs(lhs))), 1e-12)
        err = float(np.max(np.abs(lhs - rhs))) / scale
        details[which] = err
        worst = max(worst, err)
    rep = VerificationReport(
        identifier="integration-by-parts",
        config={"group": params.label(), "grid_points": grid_points},
        stats={"worst_rel_error": worst, "per_frame": details},
    )
    rep.require(worst <= 1e-3, "integration by parts mismatch above 1e-3")
    return rep
