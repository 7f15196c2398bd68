"""Heat kernel evaluation by deterministic panel quadrature.

After folding the Fourier integral onto [0, inf), the kernel at (z, t)
for time h is

    p_h(z, t) = (4 pi h)^{-(n+1)} * I,
    I = int_0^inf cos(lambda t / 4h) E(lambda) dlambda,
    E = prod_j (a_j lambda / sinh(a_j lambda))^{k_j}
        * exp(-sum_j |z_j|^2 a_j lambda coth(a_j lambda) / 4h).

E is smooth, even, positive, bounded by 1, and decays at the exponential
rate r(lambda) -> sum_j k_j a_j + sum_j |z_j|^2 a_j/(4h).  log E is a
function of lambda alone minus a sum linear in the block norms, and so is
r: each node grid (the probe, a refinement pass, a product grid) is
tabled once (sum_j k_j log(x_j/sinh x_j) and x_j coth x_j, x_j = a_j
lambda), and m points meet N nodes in one (m, l) x (l, N) product, with
no (points, nodes, blocks) array.  Each point gets its own plan from one
shared probe of E: the cutoff where the local tail bound E(L)/r(L) falls
below a tenth of the tolerance, an envelope estimate and an initial panel
count (>= `osc_factor` panels per cosine period).
Points whose quantized panel count, cutoff and decay rate agree form a
bucket that shares one panelization.  Each panel carries the nested
Gauss-Kronrod pair G7/K15: E and the cosine are evaluated at the 15
Kronrod nodes only, K15 gives the value and |K15 - G7| (G7 reusing the
odd-indexed nodes) drives adaptive refinement.  Node sums are fixed
15-term dot products and panel sums plain `np.sum`, so a given batch gives
bit-identical results from run to run.

Tolerances are relative to the envelope integral int E dlambda.  Because
the cosine may cancel most of the envelope, the achievable *relative*
accuracy of p degrades by roughly exp((d^2 - |z|^2)/4h); the error field
of KernelValue accounts for this through a floating-noise floor, and
`distance.cancellation_exponent` predicts it.  Sample clouds should stay
within a cancellation budget of ~25 log-units.

A call's working set is bounded whatever its size: the probe runs in
blocks of `_PROBE_CHUNK` points and the panel sums in chunks of about
`_PANEL_CHUNK` (point, node) entries, each chunk reduced to per-point
sums and a per-panel error maximum before the next, so a batch as large
as a whole ray suite (`polar.ray_integrals`) costs no (points, panels)
array.

Derivatives are taken under the integral sign (the decay is exponential,
so differentiation and integration commute): each d/dx_{i,j} pulls down
-x_{i,j} a_i lambda coth(a_i lambda)/(2h) and d/dt turns the cosine into
-lambda sin(.)/(4h).  Finite differences are used only as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import distance_squared_arrays, solve_theta_arrays
from .groups import (
    GroupParams,
    GroupPoint,
    block_norms_sq_flat,
    dilate,
    horizontal_components,
)
from .reports import VerificationReport

__all__ = [
    "QuadratureSpec",
    "KernelValue",
    "QuadratureError",
    "KernelConditioningError",
    "kernel",
    "kernel_zsq",
    "kernel_points",
    "kernel_derivatives",
    "log_kernel_left_gradient",
    "log_kernel_t_derivative",
    "check_scaling",
    "scaling_deviation",
    "kernel_comparison_log_rhs",
    "check_kernel_comparison",
    "integrate_radial",
]

_POSITIVITY_FLOOR = 1e-300
# Working-set bounds: (point, node) entries per `_eval_panels` chunk, and
# rows per `_plan` probe block (256 x 385 entries).  Each temporary then
# stays under a megabyte whatever the batch size.
_PANEL_CHUNK = 3e4
_PROBE_CHUNK = 256


class QuadratureError(RuntimeError):
    """Panel budget or cutoff cap hit before the error target was met."""


class KernelConditioningError(RuntimeError):
    """Kernel value too small or too noisy for the requested quantity."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the lambda integral.

    tol: target error relative to the envelope integral.
    lambda_max: hard cutoff cap.
    panel_budget: maximum number of panels.
    osc_factor: minimum panels per cosine period.
    """

    tol: float = 1e-10
    lambda_max: float = 400.0
    panel_budget: int = 4096
    osc_factor: float = 8.0

    def __post_init__(self):
        if self.tol <= 0 or self.lambda_max <= 0 or self.panel_budget < 8:
            raise ValueError("invalid quadrature spec")


@dataclass(frozen=True)
class KernelValue:
    """A kernel value above the positivity floor, with its error estimate."""

    value: float
    error: float

    def __post_init__(self):
        if self.value <= _POSITIVITY_FLOOR:
            raise KernelConditioningError("kernel value at or below the positivity floor")


# Gauss-Kronrod pair G7/K15 on [-1, 1] (Kronrod 1965; QUADPACK qk15): the
# 15 Kronrod nodes in ascending order, the odd-indexed ones being the 7
# Gauss-Legendre nodes.  _G7W holds the G7 weights at those nodes, zeros
# elsewhere, so both rules contract the same 15 values.
_KX_POS = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_KW_POS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_KX = np.concatenate([-_KX_POS, _KX_POS[-2::-1]])
_KW = np.concatenate([_KW_POS, _KW_POS[-2::-1]])
_G7W = np.zeros(15)
_G7W[1::2] = np.polynomial.legendre.leggauss(7)[1]


def _w_over_sinh_log(x):
    """log(x/sinh x) for x >= 0, stable for both tiny and large x."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-4
    xs = np.where(small, 1.0, x)
    big = xs > 30.0
    xm = np.where(big, 1.0, xs)
    mid = np.log(xm / np.sinh(xm))
    large = np.log(2.0 * xs) - xs - np.log1p(-np.exp(-2.0 * xs))
    out = np.where(big, large, mid)
    x2 = x * x
    series = -x2 / 6.0 + 7.0 * x2 * x2 / 360.0
    return np.where(small, series, out)


def _x_coth(x):
    """x coth x for x >= 0 with series near 0."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-4
    xs = np.where(small, 1.0, x)
    big = xs > 30.0
    xm = np.where(big, 1.0, xs)
    mid = xm / np.tanh(xm)
    out = np.where(big, xs, mid)
    x2 = x * x
    series = 1.0 + x2 / 3.0 - x2 * x2 / 45.0
    return np.where(small, series, out)


def _envelope_tables(params: GroupParams, lam):
    """Node tables of log E at flat nodes lam (N,): logw (N,) =
    sum_j k_j log(x_j / sinh x_j) and xc (N, l) = x_j coth x_j, x_j = a_j lam."""
    x = np.multiply.outer(np.asarray(lam, dtype=float), np.asarray(params.a))
    return np.sum(np.asarray(params.k, dtype=float) * _w_over_sinh_log(x), axis=-1), _x_coth(x)


def _log_envelope(h, zsq, tables):
    """log E at points zsq (m, l) and the tabled nodes: (m, N).  log E is
    linear in the block norms, so the points enter through one product."""
    logw, xc = tables
    return logw - (zsq @ xc.T) / (4.0 * h)


def _rate_tables(params: GroupParams, lam):
    """Node tables of -d log E / d lambda at flat nodes lam (N,): the
    geometric part sum_j k_j a_j (coth x_j - 1/x_j) (N,) and
    a_j d(x_j coth x_j)/dx_j (N, l)."""
    a = np.asarray(params.a)
    x = np.multiply.outer(np.asarray(lam, dtype=float), a)
    small = x < 1e-4
    xs = np.where(small, 1.0, x)
    coth = np.where(xs > 30.0, 1.0, 1.0 / np.tanh(np.minimum(xs, 30.0)))
    geom = np.where(small, x / 3.0, coth - 1.0 / xs)
    dxcoth = np.where(small, 2.0 * x / 3.0, coth - xs * (coth**2 - 1.0))
    return np.sum(np.asarray(params.k, dtype=float) * a * geom, axis=-1), a * dxcoth


def _decay_rate(h, zsq, tables):
    """-d log E / d lambda at points zsq (m, l) and the tabled nodes: (m, N);
    increases monotonically in lambda to its asymptote."""
    geom, adx = tables
    return geom + (zsq @ adx.T) / (4.0 * h)


def _eval_panels(params, h, zsq, tau, edges, want_extras=False):
    """K15 panel sums on the grid `edges`, reduced chunk by chunk.

    E and the cosine are evaluated at the 15 Kronrod nodes only; G7 reuses
    the values at its nodes.  Returns per-point K15 cosine integrals, per-point
    sums of |K15 - G7| over the panels, the per-panel maximum of |K15 - G7|
    over the points, per-point K15 envelope integrals and, with want_extras,
    the derivative moments.  A chunk holds about `_PANEL_CHUNK` (point,
    node) entries, so no (points, panels) array is kept.
    """
    m = zsq.shape[0]
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * _KX  # (P, 15)
    tables = _envelope_tables(params, nodes.ravel())
    cos, err, env = np.empty(m), np.empty(m), np.empty(m)
    worst = np.zeros(half.size)
    extras = None
    if want_extras:
        extras = {"coth": np.empty((m, params.l)), "sin": np.empty(m)}
        cothw = tables[1].reshape(nodes.shape + (params.l,)) * _KW[:, None]  # (P, 15, l)
    chunk = max(1, int(_PANEL_CHUNK // nodes.size))
    for s in range(0, m, chunk):
        e = min(m, s + chunk)
        E = np.exp(_log_envelope(h, zsq[s:e], tables)).reshape((e - s,) + nodes.shape)
        phase = tau[s:e, None, None] * nodes
        ce = np.cos(phase) * E
        kron = (ce @ _KW) * half
        perr = np.abs(kron - (ce @ _G7W) * half)
        cos[s:e] = kron.sum(axis=-1)
        err[s:e] = perr.sum(axis=-1)
        np.maximum(worst, perr.max(axis=0), out=worst)
        env[s:e] = ((E @ _KW) * half).sum(axis=-1)
        if want_extras:
            extras["coth"][s:e] = np.einsum("cpn,pnl,p->cl", ce, cothw, half)
            extras["sin"][s:e] = np.sum(((np.sin(phase) * E * nodes) @ _KW) * half, axis=-1)
    return cos, err, worst, env, extras


def _plan(params, h, zsq, spec):
    """Per-point cutoff, envelope estimate, tail bound and decay rate.

    All points share one 385-point probe of E, long enough for the slowest
    asymptotic decay rate among them; each point's cutoff is its first probe
    node where the tail bound E/r is below tol/10 of its envelope estimate.
    """
    a = np.asarray(params.a)
    rate = float(np.sum(np.asarray(params.k) * a)) + np.sum(zsq * a, axis=-1) / (4.0 * h)
    lam_hi = min(spec.lambda_max, max(90.0 / rate.min(initial=math.inf), 5.0))
    probe = np.linspace(0.0, lam_hi, 385)
    env_tables, rate_tables = _envelope_tables(params, probe), _rate_tables(params, probe)
    m = zsq.shape[0]
    lam_cut, env_est, tail = np.empty(m), np.empty(m), np.empty(m)
    chunk = _PROBE_CHUNK  # bounds the (chunk, 385) probe temporaries
    for s in range(0, m, chunk):
        z = zsq[s : s + chunk]
        env_probe = np.exp(_log_envelope(h, z, env_tables))  # (c, 385)
        est = np.maximum(np.trapezoid(env_probe, probe, axis=-1), 1e-300)
        bound = env_probe / np.maximum(_decay_rate(h, z, rate_tables), 1e-300)
        ok = bound <= 0.1 * spec.tol * est[:, None]
        ok[:, 0] = False
        if not bool(ok.any(axis=-1).all()):
            raise QuadratureError(
                f"tail bound tol/10 not reachable below lambda_max={spec.lambda_max}"
            )
        idx = np.argmax(ok, axis=-1)
        lam_cut[s : s + chunk] = probe[idx]
        env_est[s : s + chunk] = est
        tail[s : s + chunk] = bound[np.arange(idx.size), idx]
    return lam_cut, env_est, tail, rate


def _check_inputs(h, zsq, t):
    """Reject a time, block norm or t value the quadrature cannot use."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"time parameter h must be finite and positive, got {h}")
    if not np.all(np.isfinite(t)):
        raise ValueError("t values must be finite")
    if not np.all(np.isfinite(zsq) & (zsq >= 0.0)):
        raise ValueError("block norms |z_j|^2 must be finite and non-negative")


def _panel_count(lam_cut, tau, rate, spec):
    """Initial panels: at least 24, `osc_factor` per cosine period, one per
    six decay lengths.  QuadratureError if any count exceeds the budget."""
    with np.errstate(over="ignore"):
        osc = np.ceil(lam_cut * np.abs(tau) / (2.0 * math.pi) * spec.osc_factor)
    count = np.maximum(np.maximum(osc, np.ceil(lam_cut * rate / 6.0)), 24)
    if np.any(count > spec.panel_budget):
        raise QuadratureError(
            f"needs {float(np.max(count)):.3g} panels to resolve the integrand, "
            f"budget {spec.panel_budget}"
        )
    return count.astype(int)


def _integral_core(params, h, zsq, tau, plan, npan, spec, derivs=False):
    """Shared-grid quadrature for one bucket of planned points.

    zsq: (m, l), tau: (m,), plan: the points' (lam_cut, env_est, tail),
    npan: initial panels on [0, max lam_cut].  Returns the cosine integral,
    the error estimate and, with derivs, the derivative moments.
    """
    lam_cut, env_est, tail = plan
    edges = np.linspace(0.0, float(lam_cut.max()), npan + 1)
    target = spec.tol * env_est

    # adaptive refinement driven by the K15-vs-G7 disagreement; the
    # derivative moments ride along, since the first grid usually suffices
    for _ in range(10):
        cos, total_err, worst, env_int, extras = _eval_panels(params, h, zsq, tau, edges, derivs)
        if np.all(total_err <= target):
            break
        P = edges.size - 1
        if P >= spec.panel_budget:
            raise QuadratureError(
                f"panel budget {spec.panel_budget} exhausted; worst error "
                f"{float(np.max(total_err / target)):.3g}x target"
            )
        thresh = max(float(np.min(target)) / P * 0.5, float(worst.max()) * 0.05)
        split = worst > thresh
        if not split.any():
            split = worst >= float(worst.max()) * 0.5
        new_edges = [edges[0]]
        for i in range(P):
            if split[i]:
                new_edges.append(0.5 * (edges[i] + edges[i + 1]))
            new_edges.append(edges[i + 1])
        edges = np.asarray(new_edges)
        if edges.size - 1 > spec.panel_budget:
            raise QuadratureError(
                f"panel budget {spec.panel_budget} exceeded during refinement"
            )
    else:
        raise QuadratureError("adaptive refinement failed to converge")

    noise = np.finfo(float).eps * env_int * 4.0
    return {"cos": cos, "err": total_err + tail + noise, "extras": extras}


def _batched_core(params, h, zs, ts, spec, derivs=False):
    """Plan every point once, bucket points by quantized panel count,
    cutoff and decay rate, and run the refine loop per bucket."""
    m = zs.shape[0]
    lam_cut, env_est, tail, rate = _plan(params, h, zs, spec)
    tau = ts / (4.0 * h)
    npan = _panel_count(lam_cut, tau, rate, spec)
    # quarter-octave bins: a bucket's shared grid exceeds any member's own
    # panel count or cutoff by less than 19 %
    keys = np.ceil(4.0 * np.log2(np.stack([npan, lam_cut, rate], axis=-1)))
    _, bucket, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    order = np.argsort(bucket.ravel(), kind="stable")
    cos = np.empty(m)
    err = np.empty(m)
    extras = {"coth": np.empty((m, params.l)), "sin": np.empty(m)} if derivs else None
    ends = np.cumsum(counts)
    for lo, hi in zip(ends - counts, ends):
        sel = order[lo:hi]
        plan = (lam_cut[sel], env_est[sel], tail[sel])
        out = _integral_core(params, h, zs[sel], tau[sel], plan, int(npan[sel].max()), spec, derivs)
        cos[sel] = out["cos"]
        err[sel] = out["err"]
        if derivs:
            extras["coth"][sel] = out["extras"]["coth"]
            extras["sin"][sel] = out["extras"]["sin"]
    return {"cos": cos, "err": err, "extras": extras}


def kernel_zsq(params: GroupParams, h: float, zsq, t, spec=None):
    """Kernel values from block norms: zsq (..., l), t (...).

    Returns (values, errors) with the (4 pi h)^{-(n+1)} prefactor applied.
    """
    spec = spec or QuadratureSpec()
    zsq = np.asarray(zsq, dtype=float)
    t = np.asarray(t, dtype=float)
    _check_inputs(h, zsq, t)
    shape = np.broadcast_shapes(zsq.shape[:-1], t.shape)
    zs = np.ascontiguousarray(np.broadcast_to(zsq, shape + (params.l,)).reshape(-1, params.l))
    ts = np.ascontiguousarray(np.broadcast_to(t, shape).reshape(-1))
    norm = (4.0 * math.pi * h) ** (-(params.n + 1))
    out = _batched_core(params, h, zs, ts, spec)
    vals = (norm * out["cos"]).reshape(shape)
    errs = (norm * out["err"]).reshape(shape)
    return vals, errs


def kernel(params: GroupParams, h: float, g: GroupPoint, spec=None) -> KernelValue:
    """Heat kernel p_h at a point, with an error estimate."""
    vals, errs = kernel_zsq(params, h, block_norms_sq_flat(params, g.flat()), g.t, spec)
    return KernelValue(float(vals), float(errs))


def kernel_points(params: GroupParams, h: float, coords, spec=None):
    """Batch kernel over flat coordinate arrays (..., 2n+1)."""
    coords = np.asarray(coords, dtype=float)
    zsq = block_norms_sq_flat(params, coords)
    return kernel_zsq(params, h, zsq, coords[..., -1], spec)


def kernel_product_grid(params: GroupParams, h: float, zsq, tvals, spec=None):
    """Kernel on the product of a block-norm set and a t set.

    zsq: (..., l), read as m1 rows; tvals: any shape, read as m2 values.
    Returns (values, errors) of shape (m1, m2), so the (m1, 1, l) and
    (1, m2) arrays of `integrate_radial` can be passed straight in.  All
    pairs share one panelization, so the cosine transform becomes a single
    matrix contraction; the error estimate compares the working grid
    against one with doubled panels.  Intended for tensor grids where
    evaluating every (z, t) pair separately would repeat the envelope work
    m2 times.
    """
    spec = spec or QuadratureSpec(tol=1e-9)
    zsq = np.asarray(zsq, dtype=float).reshape(-1, params.l)
    tvals = np.ravel(np.asarray(tvals, dtype=float))
    _check_inputs(h, zsq, tvals)
    if zsq.shape[0] == 0 or tvals.size == 0:
        raise ValueError("empty product grid")
    m1 = zsq.shape[0]
    lam_cut, _, tail, rate = _plan(params, h, zsq, spec)
    lam_cut = float(lam_cut.max())
    r_inf = float(rate.min())
    tau = tvals / (4.0 * h)
    npan = int(_panel_count(lam_cut, np.max(np.abs(tau)), r_inf, spec))
    if 2 * npan > spec.panel_budget:
        raise QuadratureError("panel budget exceeded on the product grid")

    def _value(npanels):
        nodes, wts = _panel_rule(np.linspace(0.0, lam_cut, npanels + 1), _KX, _KW)
        tables = _envelope_tables(params, nodes)
        out = np.empty((m1, tvals.size))
        cosM = np.cos(np.multiply.outer(tau, nodes))  # (m2, N)
        chunk = max(1, int(8e6 // max(nodes.size, 1)))
        for s in range(0, m1, chunk):
            e = min(m1, s + chunk)
            Ew = np.exp(_log_envelope(h, zsq[s:e], tables)) * wts
            out[s:e] = Ew @ cosM.T
        return out

    v_coarse = _value(npan)
    v_fine = _value(2 * npan)
    norm = (4.0 * math.pi * h) ** (-(params.n + 1))
    err = np.abs(v_fine - v_coarse) + tail[:, None] + np.finfo(float).eps * 4.0 / max(r_inf, 1e-3)
    return norm * v_fine, norm * err


def kernel_derivatives(params: GroupParams, h: float, coords, spec=None):
    """Kernel and its Euclidean partials at flat points (..., 2n+1).

    Returns dict with 'p' (...), 'dp' (..., 2n+1), 'err' (...).
    """
    spec = spec or QuadratureSpec()
    coords = np.asarray(coords, dtype=float)
    shape = coords.shape[:-1]
    flat = coords.reshape(-1, params.dim)
    zsq = block_norms_sq_flat(params, flat)
    _check_inputs(h, zsq, flat[:, -1])
    norm = (4.0 * math.pi * h) ** (-(params.n + 1))
    out = _batched_core(params, h, zsq, np.ascontiguousarray(flat[:, -1]), spec, derivs=True)
    p = norm * out["cos"]
    coth_int = norm * out["extras"]["coth"]  # (m, l)
    sin_int = norm * out["extras"]["sin"]  # (m,)
    n = params.n
    dp = np.empty((flat.shape[0], params.dim))
    x = flat[:, 0 : 2 * n : 2]
    y = flat[:, 1 : 2 * n : 2]
    wblk = coth_int[:, params.pair_block]
    dp[:, 0 : 2 * n : 2] = -x / (2.0 * h) * wblk
    dp[:, 1 : 2 * n : 2] = -y / (2.0 * h) * wblk
    dp[:, 2 * n] = -sin_int / (4.0 * h)
    return {
        "p": p.reshape(shape),
        "dp": dp.reshape(shape + (params.dim,)),
        "err": (norm * out["err"]).reshape(shape),
    }


def _require_conditioned(p, err):
    if np.any(p <= _POSITIVITY_FLOOR):
        raise KernelConditioningError("kernel value at or below the positivity floor")
    if np.any(err > 0.5 * np.abs(p)):
        raise KernelConditioningError(
            "quadrature error comparable to the kernel value; "
            "point lies outside the well-conditioned zone"
        )


def log_kernel_left_gradient(params: GroupParams, h: float, g: GroupPoint, spec=None):
    """Horizontal components (X ln p_h, Y ln p_h, ...) as a 2n vector."""
    coords = g.flat()
    out = kernel_derivatives(params, h, coords, spec)
    _require_conditioned(out["p"], out["err"])
    egrad = out["dp"] / out["p"]
    return horizontal_components(params, egrad, coords, which="left")


def log_kernel_t_derivative(params: GroupParams, h: float, g: GroupPoint, spec=None) -> float:
    out = kernel_derivatives(params, h, g.flat(), spec)
    _require_conditioned(out["p"], out["err"])
    return float(out["dp"][..., -1] / out["p"])


def scaling_deviation(params: GroupParams, h, left, left_err, right, right_err):
    """Scaling-law deviation |h^{n+1} p_h(z, t) - p_1(z/sqrt h, t/h)| relative
    to the right side, and the summed relative error estimates of both
    sides; elementwise over arrays of h and kernel values."""
    dev = np.abs(h ** (params.n + 1) * left - right) / right
    return dev, left_err / left + right_err / right


def check_scaling(params: GroupParams, h: float, g: GroupPoint, spec=None) -> VerificationReport:
    """Scaling law: h^{n+1} p_h(z, t) against p_1(z/sqrt h, t/h)."""
    spec = spec or QuadratureSpec()
    left = kernel(params, h, g, spec)
    right = kernel(params, 1.0, dilate(1.0 / math.sqrt(h), g), spec)
    dev, rel_err = scaling_deviation(params, h, left.value, left.error, right.value, right.error)
    rep = VerificationReport(
        identifier="kernel-scaling",
        config={"h": h, "group": params.label()},
        stats={"deviation": float(dev), "error_budget": 10.0 * rel_err},
    )
    rep.require(dev <= 10.0 * rel_err, "scaling deviation exceeds quadrature error budget")
    return rep


def kernel_comparison_log_rhs(params: GroupParams, zsq, t):
    """Log of the two-sided comparison quantity for p_1 at interior points.

    Combines the distance Gaussian with the algebraic prefactor built from
    eps0 = sin(theta)/theta, |z|, and the top block norm |z_l|.
    """
    zsq = np.asarray(zsq, dtype=float)
    t = np.asarray(t, dtype=float)
    d2, theta, branch, _ = distance_squared_arrays(params, zsq, t, return_parts=True)
    if np.any(branch == 2):
        raise ValueError("comparison quantity is defined on interior branches only")
    eps = np.sinc(theta / math.pi)
    zn = np.sqrt(np.sum(zsq, axis=-1))
    zl = zsq[..., -1]
    first = -0.5 * np.log1p(zn**2 * eps**2 + zl / eps)
    second = (params.k[-1] - 1) * (
        np.log1p(zn + zl / eps**2) - np.log1p(zn * eps + zl / eps)
    )
    return first + second - d2 / 4.0


def check_kernel_comparison(params: GroupParams, coords, spec=None) -> VerificationReport:
    """Ratio of p_1 to the comparison quantity over an interior-branch cloud.

    Boundary-branch points are excluded and counted.  The verdict asks for
    finite positive extremes.
    """
    spec = spec or QuadratureSpec()
    coords = np.asarray(coords, dtype=float)
    zsq = block_norms_sq_flat(params, coords)
    t = coords[..., -1]
    _, branch, _ = solve_theta_arrays(params, zsq, t)
    keep = branch != 2
    excluded = int(np.sum(~keep))
    zsq, t = zsq[keep], t[keep]
    vals, errs = kernel_zsq(params, 1.0, zsq, t, spec)
    _require_conditioned(vals, errs)
    ratio = np.exp(np.log(vals) - kernel_comparison_log_rhs(params, zsq, t))
    rep = VerificationReport(
        identifier="kernel-two-sided-comparison",
        config={"group": params.label(), "points": int(ratio.size)},
        stats={"ratio_min": float(ratio.min()), "ratio_max": float(ratio.max())},
        exclusions=excluded,
    )
    rep.require(
        bool(np.isfinite(ratio).all()) and float(ratio.min()) > 0,
        "ratios must be finite and positive",
    )
    return rep


def _sphere_surface(kdim: int) -> float:
    """Surface measure of the unit sphere in C^k = R^{2k}: 2 pi^k/(k-1)!."""
    return 2.0 * math.pi**kdim / math.factorial(kdim - 1)


def _panel_rule(edges, x, w):
    """Composite rule from a rule (x, w) on [-1, 1] mapped onto each panel
    [edges[i], edges[i+1]]: flat nodes and weights, panel by panel."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _tensor_rule(nodes, weights):
    """Tensor product of per-axis rules: the meshgrid ('ij' order) points,
    shape (N, d), and their outer-product weights, shape (N,)."""
    w = weights[0]
    for ww in weights[1:]:
        w = np.multiply.outer(w, ww)
    pts = np.empty(np.shape(w) + (len(nodes),))
    for d, axis in enumerate(np.meshgrid(*nodes, indexing="ij", sparse=True)):
        pts[..., d] = axis
    return pts.reshape(-1, len(nodes)), np.ravel(w)


def integrate_radial(params: GroupParams, func, rho_max, t_max, points=16, scale=1.0):
    """Integrate func over the whole group assuming it depends on z only
    through the block norms.  Reduces to an (l+1)-dim composite tensor
    Gauss rule with the block surface factors rho^{2k-1}; `scale` sets the
    panel width (use sqrt(h) scaling in rho and h scaling in t so the
    kernel's analyticity strip is resolved).

    func maps block norms zsq (m1, 1, l) and t nodes (1, m2) to values
    broadcastable to (m1, m2): the block-norm rule and the t rule stay
    separate, so `kernel_product_grid` can serve as the integrand.
    """
    gl = np.polynomial.legendre.leggauss(points)

    def axis(lo, hi, panel_width):
        npan = max(1, int(math.ceil((hi - lo) / panel_width)))
        return _panel_rule(np.linspace(lo, hi, npan + 1), *gl)

    rho_max = np.broadcast_to(np.asarray(rho_max, dtype=float), (params.l,))
    axes_nodes, axes_weights = [], []
    for j in range(params.l):
        nodes, wts = axis(0.0, rho_max[j], 1.5 * math.sqrt(scale))
        axes_nodes.append(nodes)
        axes_weights.append(wts * _sphere_surface(params.k[j]) * nodes ** (2 * params.k[j] - 1))
    rho, w_rho = _tensor_rule(axes_nodes, axes_weights)
    t_nodes, t_wts = axis(-t_max, t_max, 2.5 * scale)
    vals = func(rho[:, None, :] ** 2, t_nodes[None, :])
    return float(np.sum(vals * np.multiply.outer(w_rho, t_wts)))
