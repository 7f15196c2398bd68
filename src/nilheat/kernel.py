"""Heat kernel evaluation by the trapezoid rule on the saddle line.

The kernel at (z, t) for time h is

    p_h(z, t) = (4 pi h)^{-(n+1)} * I,   I = 1/2 int_R e^{i lambda tau} E(lambda) dlambda,
    E = prod_j (a_j lambda / sinh(a_j lambda))^{k_j}
        * exp(-sum_j Z_j a_j lambda coth(a_j lambda)),   Z_j = |z_j|^2/4h,

with tau = |t|/4h (p is even in t).  The engine sees a point and its time
only through the reduced variables Z_j and tau and through the angle of
(z, t), which is dilation invariant; h itself enters only the prefactor
and the 1/2h and 1/4h scales of the derivatives.  So h is a number or an
array that broadcasts against the points, one time per point.

E is even, real on the real line and analytic in the strip
|Im lambda| < pi/a_l = pi, so the integral may be taken on any line
Im lambda = sigma inside it:

    I = e^{-sigma tau} int_0^inf Re(e^{i x tau} E(x + i sigma)) dx.

On the real line the cosine cancels about (d^2 - |z|^2)/4h log-units.  The
stationarity condition of -sigma tau + log E(i sigma) is the angle
equation, so the saddle sits at sigma = theta, the Carnot-Caratheodory
angle of (z, t) (Beals, Gaveau & Greiner, J. Math. Pures Appl. 2000).  On
the line through it the integrand does not cancel, and the trapezoid rule

    I_Delta = e^{-sigma tau} Delta [E(i sigma)/2
              + sum_{k>=1} Re(e^{i k Delta tau} E(k Delta + i sigma))]

converges geometrically in the step (Trefethen & Weideman, SIAM Rev.
2014).  Every sigma in the strip gives the same integral, so theta only
has to be near:

- sigma is |theta| floored onto rungs of pi/64, at most the top rung
  59/64 pi, which boundary-branch points take; the t = 0 slice takes 0.
  A caller that knows the angles passes them as `theta`.
- omega = 2 pi/Delta is at least tau + C/pi and C/(pi - sigma), the
  aliasing terms of the shifts down to Im lambda = -pi and up to the pole
  at i pi, and sqrt(2 C kappa), kappa = sum_j Z_j a_j^2 mu'(a_j sigma)
  the saddle's curvature; C = 13 + log(1/tol).  These leave out
  the essential singularity of E at i pi when z_l != 0, so near the top
  rungs the Delta rule can stop short of e^{-C} (1e-6 relative on some
  lemma6 ray nodes); the Delta/2 rule squares its error.
- the cutoff L is where |E| has fallen by e^{-C} below the value, at its
  asymptotic decay rate r = sum_j k_j a_j + sum_j Z_j a_j.

omega and L are rounded up onto rungs of an eighth of an octave, so a
point's grid depends only on its (sigma, omega, L) rungs, never on the
other points of its call.  Points with equal rungs, packed into one
integer key, share a grid and its complex node tables, sum_j k_j
log(x_j/sinh x_j) and x_j coth x_j at x_j = a_j lambda_k.  log E is the
first minus a part linear in the block norms, so m points meet N nodes
in two real (m, l) x (l, N) products, then one `exp` and one `cos` per
entry; the sums run in chunks of about `_CHUNK` (point, node) entries.

The value returned is the Delta/2 sum, which reuses every node of the
Delta sum.  Its error estimate is |I_Delta - I_{Delta/2}|, plus the tail
bound 2 |term at L|/r, plus eps times the absolute sum of the terms
weighted by the size of their exponents (their rounding noise).

Derivatives are taken under the integral sign from the same terms:
d/dx_{i,j} weights them by -x_{i,j} a_i lambda coth(a_i lambda)/(2h), and
d/dt by sign(t) i lambda/4h.  Finite differences are test oracles only.

This is the one engine: `kernel_zsq`, `kernel_points`, `kernel_derivatives`
and the product view `kernel_product_grid` all sum in `_line_sums`.

The suites still clip their clouds with `sampling.kernel_feasible_mask`
(25 log-units of real-line cancellation, (d^2 - |z|^2)/4h) and truncate
the rays of `polar.ray_integrals`: these decide which points a cloud
holds, and the frozen constants are extremes over those points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import _SOLVE_BLOCK, _flat_rows, distance_squared_arrays, mu_prime, solve_theta_arrays
from .groups import GroupParams, _check_trailing, block_norms_sq_flat, horizontal_components
from .reports import VerificationReport

__all__ = [
    "QuadratureSpec",
    "KernelValue",
    "QuadratureError",
    "KernelConditioningError",
    "kernel_zsq",
    "kernel_points",
    "kernel_derivatives",
    "log_kernel_derivatives",
    "scaling_deviation",
    "kernel_comparison_log_rhs",
    "check_kernel_comparison",
    "integrate_radial",
]

_POSITIVITY_FLOOR = 1e-300
_SIGMA_RUNGS = 64  # rungs of the line height per strip half-width pi
_TOP_RUNG = 59  # highest line, 59/64 pi: caps the pole term C/(pi - sigma) of omega
_OCTAVE_RUNGS = 8  # rungs per octave of omega and L
_NODE_CAP = 1 << 16  # nodes per point on the Delta/2 grid
_CHUNK = 3e4  # (point, node) entries per chunk of the sums
_RADIAL_BLOCK = 1 << 20  # (row, t) entries per integrand call in integrate_radial
_KEY_DIMS = (_TOP_RUNG + 1, 1 << 16, 1 << 16)  # (sigma, omega, L) rung fields of a grid key
_KEY_HALF = 1 << 15  # offset of the omega and L rungs: 8 rungs per octave of any double fit


class QuadratureError(RuntimeError):
    """Node cap or cutoff cap hit: the grid cannot reach the target."""


class KernelConditioningError(RuntimeError):
    """Kernel value too small or too noisy for the requested quantity."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the lambda integral.

    tol: target error relative to the value, 0 < tol < 1.
    lambda_max: hard cap on the cutoff L.
    """

    tol: float = 1e-10
    lambda_max: float = 400.0

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0 and self.lambda_max > 0):
            raise ValueError("invalid quadrature spec")


@dataclass(frozen=True)
class KernelValue:
    """A kernel value above the positivity floor, with its error estimate."""

    value: float
    error: float

    def __post_init__(self):
        if self.value <= _POSITIVITY_FLOOR:
            raise KernelConditioningError("kernel value at or below the positivity floor")


def _line_tables(params: GroupParams, lam):
    """Node tables of log E at complex nodes lam (N,), Re lam >= 0 and
    |Im lam| < pi: logw (N,) = sum_j k_j log(x_j/sinh x_j) and xc (N, l) =
    x_j coth x_j, x_j = a_j lam, by series below |x_j| = 1e-4 and by their
    asymptotes above Re x_j = 20.  The branch of the log does not matter:
    only its exponential is used."""
    x = np.multiply.outer(np.asarray(lam, dtype=complex), np.asarray(params.a))
    logr, xc = np.empty_like(x), np.empty_like(x)
    small, big = np.abs(x) < 1e-4, x.real > 20.0
    mid = ~(small | big)
    xm, xb, x2 = x[mid], x[big], x[small] ** 2
    logr[mid], xc[mid] = np.log(xm / np.sinh(xm)), xm / np.tanh(xm)
    logr[big], xc[big] = np.log(2.0 * xb) - xb, xb
    logr[small], xc[small] = x2 * (x2 / 180.0 - 1.0 / 6.0), 1.0 + x2 * (1.0 / 3.0 - x2 / 45.0)
    return logr @ np.asarray(params.k, dtype=float), xc


def _log_envelope(Z, tables):
    """Real and imaginary parts of log E at reduced block norms
    Z = |z_j|^2/4h (..., l) and the tabled nodes, each (..., N): log E is
    linear in the block norms."""
    logw, xc = tables
    # each part as a contiguous (N, l) array read transposed: one layout of
    # the product, so one BLAS kernel and one rounding, in every call
    re, im = (np.ascontiguousarray(part).T for part in (xc.real, xc.imag))
    return logw.real - Z @ re, logw.imag - Z @ im


def _check_inputs(params: GroupParams, h, zsq, t):
    """Reject a time, block norm or t value the quadrature cannot use, and
    return the prefactor (4 pi h)^{-(n+1)} per entry of h (an array of h's
    shape), which must be finite.  zsq must have a trailing axis of l block
    norms.  The prefactor is Python's power of each entry, so an array entry
    carries the bits of the same h passed as a number.

    tau = |t|/4h and Z_j = |z_j|^2/4h must be finite.  Both are bounded from
    the largest |t|, the largest zsq and the smallest h, with no temporary
    of the broadcast shape, so a call whose largest |t| and smallest h sit
    on different points is rejected when that bound overflows."""
    _check_trailing(zsq, params.l)
    h = np.asarray(h, dtype=float)
    bad = ~(np.isfinite(h) & (h > 0.0))
    if bad.any():
        raise ValueError(f"time parameter h must be finite and positive, got {h[bad].flat[0]}")
    if not np.all(np.isfinite(t)):
        raise ValueError("t values must be finite")
    if not np.all(np.isfinite(zsq) & (zsq >= 0.0)):
        raise ValueError("block norms |z_j|^2 must be finite and non-negative")
    try:
        norm = [(4.0 * math.pi * v) ** (-(params.n + 1)) for v in h.ravel().tolist()]
    except OverflowError:
        raise ValueError(f"prefactor (4 pi h)^-{params.n + 1} overflows at h = {h.min()}") from None
    h_min = float(h.min(initial=math.inf))
    t_max = max(float(np.max(t, initial=0.0)), -float(np.min(t, initial=0.0)))
    for name, part, top in (("tau", "|t|", t_max), ("Z_j", "|z_j|^2", float(np.max(zsq, initial=0.0)))):
        if not math.isfinite(top / (4.0 * h_min)):
            raise ValueError(f"{name} = {part}/4h overflows: {part} up to {top:.3g} at h = {h_min:.3g}")
    return np.reshape(norm, h.shape)


def _sigma_rungs(params: GroupParams, zsq, t, theta=None):
    """Rung index of the line height per point: |theta|, solved unless
    given, floored onto rungs of pi/64 up to the top rung; 0 where t = 0."""
    rung = np.zeros(t.shape, dtype=np.int8)
    on = np.flatnonzero(t != 0.0)  # the origin would make the angle solve raise
    if on.size:
        angle = solve_theta_arrays(params, zsq[on], t[on])[0] if theta is None else theta[on]
        # fmin: NaN, the boundary branch's angle, takes the top rung as pi does
        rung[on] = np.fmin(np.floor(np.abs(angle) * (_SIGMA_RUNGS / math.pi)), _TOP_RUNG)
    return rung


def _asymptotic_rate(params: GroupParams, Z):
    """Asymptotic rate r = sum_j k_j a_j + sum_j Z_j a_j at which
    |E(x + i sigma)| decays in x, per point of Z (..., l)."""
    a = np.asarray(params.a)
    return float(np.dot(params.k, a)) + Z @ a


def _grid_rungs(params: GroupParams, Z, tau, sigma, spec):
    """(omega, L) rung indices per point of Z (..., l) and tau for lines at
    heights sigma: the smallest i with 2^(i/8) at or above each.
    QuadratureError for a rung past the grid key's fields, which only an
    overflowing omega or L reaches."""
    a = np.asarray(params.a)
    C = 13.0 + math.log(1.0 / spec.tol)
    # a huge Z or tau overflows to inf or nan here, and is refused below
    with np.errstate(all="ignore"):
        kappa = np.sum(Z * a * a * mu_prime(np.multiply.outer(sigma, a)), axis=-1)
        omega = np.maximum(tau + C / math.pi, C / (math.pi - sigma))
        omega = np.maximum(omega, np.sqrt(2.0 * C * kappa))
        rate = _asymptotic_rate(params, Z)
        # the tail bound 2|E(L)|/r against the value: |E| falls from its
        # saddle value at rate r, after e^{sum Z_j} of slack for blocks with
        # a_j < 1, an algebraic factor (2 a_j L)^{k_j} and the saddle width
        # 1/sqrt(kappa)
        slack = C + np.sum(Z, axis=-1) + 0.5 * np.log1p(kappa) + np.log(2.0 / rate)
        algebraic = np.log(2.0 + 2.0 * np.multiply.outer(slack / rate + sigma, a))
        cut = (slack + algebraic @ np.asarray(params.k)) / rate
        rungs = [np.ceil(_OCTAVE_RUNGS * np.log2(v)) for v in (omega, cut)]
    for name, rung in zip(("step count omega", "cutoff L"), rungs):
        if not np.all(np.abs(rung) < _KEY_HALF):  # NaN fails too
            raise QuadratureError(f"quadrature {name} overflows at this block norm or t")
    return tuple(rung.astype(np.int64) for rung in rungs)


def _grid(w_rung, cut_rung, spec):
    """Step Delta and coarse interval count K of one (omega, L) rung pair;
    QuadratureError past the cutoff or node cap."""
    cut = 2.0 ** (cut_rung / _OCTAVE_RUNGS)
    if cut > spec.lambda_max:
        raise QuadratureError(
            f"quadrature cutoff {cut:.3g} exceeds lambda_max={spec.lambda_max}"
        )
    # K = ceil(L omega / 2 pi), from its log so that no huge tau overflows
    log2_count = (w_rung + cut_rung) / _OCTAVE_RUNGS - math.log2(2.0 * math.pi)
    count = math.ceil(2.0 ** min(log2_count, 64.0))
    if 2 * count + 1 > _NODE_CAP:
        raise QuadratureError(
            f"quadrature needs {2.0**log2_count:.3g} steps per point, cap {_NODE_CAP // 2}"
        )
    return cut / count, count


def _weights(step, count):
    """Trapezoid weights on the half line at nodes k step/2, k = 0..2K:
    the Delta/2 rule and the Delta rule on its even nodes."""
    fine = np.full(2 * count + 1, 0.5 * step)
    fine[0] = 0.25 * step
    coarse = np.zeros(2 * count + 1)
    coarse[::2] = step
    coarse[0] = 0.5 * step
    return fine, coarse


def _line_sums(params, Z, tau, sigma, step, count, derivs=False):
    """Trapezoid sums of one grid: nodes k step/2 + i sigma, k = 0..2K.

    Z: (m, l), tau: (m,) >= 0.  Returns the Delta/2 integrals, their error
    estimates and, with derivs, the moments dI/dtau (m,) and the integrals
    weighted by x_j coth x_j (m, l).
    """
    lam = np.arange(2 * count + 1) * (0.5 * step) + 1j * sigma
    tables = _line_tables(params, lam)
    xc = tables[1]
    fine, coarse = _weights(step, count)
    m = Z.shape[0]
    val, diff, absum, noise, last = (np.empty(m) for _ in range(5))
    if derivs:
        dtau, dcoth = np.empty(m), np.empty((m, params.l))
        wre, wim = fine[:, None] * xc.real, fine[:, None] * xc.imag
    chunk = max(1, int(_CHUNK // lam.size))
    for s in range(0, m, chunk):
        e = min(m, s + chunk)
        re, im = _log_envelope(Z[s:e], tables)
        re -= (sigma * tau[s:e])[:, None]
        im += np.multiply.outer(tau[s:e], lam.real)
        mag = np.exp(re)
        term = mag * np.cos(im)
        val[s:e] = term @ fine
        diff[s:e] = val[s:e] - term @ coarse
        absum[s:e] = mag @ fine
        noise[s:e] = (mag * np.abs(im)) @ fine
        last[s:e] = mag[:, -1]
        if derivs:
            sine = mag * np.sin(im)
            dtau[s:e] = -sigma * val[s:e] - sine @ (fine * lam.real)
            dcoth[s:e] = term @ wre - sine @ wim
    rate = _asymptotic_rate(params, Z)
    eps = np.finfo(float).eps
    noise = eps * (noise + (4.0 + 2.0 * sigma * tau) * absum)
    out = {"val": val, "err": np.abs(diff) + 2.0 * last / rate + noise}
    if derivs:
        out["dtau"], out["dcoth"] = dtau, dcoth
    return out


def _reduced(zs, ts, hs):
    """Reduced block norms Z = zs/4h (m, l) and tau = |t|/4h (m,)."""
    four_h = 4.0 * hs
    return zs / four_h[:, None], np.abs(ts) / four_h


def _trapezoid(params, zs, ts, hs, rung, spec, derivs=False):
    """Saddle-line trapezoid integrals I at points zs (m, l), ts (m,), times
    hs (m,) and sigma rungs `rung` (m,): points with equal (sigma, omega, L)
    rungs share one grid.  Z and tau are formed per block and per grid."""
    m = ts.shape[0]
    key = np.empty(m, dtype=np.int64)
    for s in range(0, m, _SOLVE_BLOCK):
        blk = slice(s, s + _SOLVE_BLOCK)
        Z, tau = _reduced(zs[blk], ts[blk], hs[blk])
        w_rung, cut_rung = _grid_rungs(params, Z, tau, rung[blk] * (math.pi / _SIGMA_RUNGS), spec)
        fields = (rung[blk], w_rung + _KEY_HALF, cut_rung + _KEY_HALF)
        key[blk] = np.ravel_multi_index(fields, _KEY_DIMS)  # sorts as (sigma, omega, L)
    order = np.argsort(key, kind="stable")  # a grid's points stay in input order
    key.sort()
    starts = np.flatnonzero(np.r_[m > 0, key[1:] != key[:-1]])
    ends = np.r_[starts[1:], m]
    lines = np.transpose(np.unravel_index(key[starts], _KEY_DIMS)).tolist()
    del key  # the grids' sums below set the peak memory of a large call
    grids = [_grid(w - _KEY_HALF, cut - _KEY_HALF, spec) for _, w, cut in lines]  # raise first
    out = {"val": np.empty(m), "err": np.empty(m)}
    if derivs:
        out["dtau"], out["dcoth"] = np.empty(m), np.empty((m, params.l))
    for s, e, (r, _, _), (step, count) in zip(starts, ends, lines, grids):
        sel = order[s:e]
        Z, tau = _reduced(zs[sel], ts[sel], hs[sel])
        part = _line_sums(params, Z, tau, r * (math.pi / _SIGMA_RUNGS), step, count, derivs)
        for name, arr in part.items():
            out[name][sel] = arr
    return out


def _integrals(params: GroupParams, h, zsq, t, spec, derivs=False, theta=None):
    """Check h (...), zsq (..., l) and t (...), broadcast them against one
    another and run `_trapezoid` on the flat points.  Returns the common
    shape, the flat h (m,), the flat prefactor (m,) and the integrals.  h
    enters the engine only through Z = zsq/4h and tau = |t|/4h; the line
    heights come from the angles of (zsq, t), one per point however many
    times h repeats it."""
    norm = _check_inputs(params, h, zsq, t)
    pz, pt, points = _flat_rows(params, zsq, t)
    shape = np.broadcast_shapes(points, norm.shape)
    if theta is not None:
        theta = np.broadcast_to(np.asarray(theta, dtype=float), points).reshape(-1)
    rung = np.broadcast_to(_sigma_rungs(params, pz, pt, theta).reshape(points), shape).reshape(-1)
    zs = np.ascontiguousarray(np.broadcast_to(zsq, shape + (params.l,)).reshape(-1, params.l))
    ts = np.broadcast_to(t, shape).reshape(-1)
    hs = np.broadcast_to(np.asarray(h, dtype=float), shape).reshape(-1)
    out = _trapezoid(params, zs, ts, hs, rung, spec, derivs)
    return shape, hs, np.broadcast_to(norm, shape).reshape(-1), out


def kernel_zsq(params: GroupParams, h, zsq, t, spec=None, *, theta=None):
    """Kernel values from block norms: zsq (..., l), t (...) and h, a
    number or an array, broadcast against one another.  theta (keyword
    only): the points' angles where known (eta at Psi(u, eta)); an angle
    sets only the line height: any angle gives the integral to spec.tol.

    Returns (values, errors) of the broadcast shape with the
    (4 pi h)^{-(n+1)} prefactor applied.
    """
    spec = spec or QuadratureSpec()
    zsq = np.asarray(zsq, dtype=float)
    t = np.asarray(t, dtype=float)
    shape, _, norm, out = _integrals(params, h, zsq, t, spec, theta=theta)
    return tuple(np.multiply(out[k], norm, out=out[k]).reshape(shape) for k in ("val", "err"))


def kernel_points(params: GroupParams, h, coords, spec=None):
    """Batch kernel over flat coordinate arrays (..., 2n+1); h broadcasts
    against the leading axes, as in `kernel_zsq`."""
    coords = _check_trailing(np.asarray(coords, dtype=float), params.dim)
    zsq = block_norms_sq_flat(params, coords)
    return kernel_zsq(params, h, zsq, coords[..., -1], spec)


def kernel_product_grid(params: GroupParams, h, zsq, tvals, spec=None):
    """`kernel_zsq` on the product of a block-norm set, zsq (..., l) read
    as m1 rows, and a t set, tvals of any shape read as m2 values: (values,
    errors) of shape (m1, m2).  Kept for the benchmark tracer, which wraps
    it by name (ROADMAP direction 8)."""
    zsq = _check_trailing(np.asarray(zsq, dtype=float), params.l)
    tvals = np.ravel(np.asarray(tvals, dtype=float))
    if zsq.size == 0 or tvals.size == 0:
        raise ValueError("empty product grid")
    return kernel_zsq(params, h, zsq.reshape(-1, 1, params.l), tvals, spec)


def kernel_derivatives(params: GroupParams, h, coords, spec=None):
    """Kernel and its Euclidean partials at flat points (..., 2n+1); h
    broadcasts against the leading axes, as in `kernel_zsq`.

    Returns dict with 'p' (S), 'dp' (S + (2n+1,)), 'err' (S), S the
    broadcast shape.
    """
    spec = spec or QuadratureSpec()
    coords = _check_trailing(np.asarray(coords, dtype=float), params.dim)
    zsq = block_norms_sq_flat(params, coords)
    shape, hs, norm, out = _integrals(params, h, zsq, coords[..., -1], spec, derivs=True)
    flat = np.broadcast_to(coords, shape + (params.dim,)).reshape(-1, params.dim)
    n = params.n
    dp = np.empty((flat.shape[0], params.dim))
    wblk = (norm[:, None] * out["dcoth"])[:, params.pair_block]
    two_h = (2.0 * hs)[:, None]
    dp[:, 0 : 2 * n : 2] = -flat[:, 0 : 2 * n : 2] / two_h * wblk
    dp[:, 1 : 2 * n : 2] = -flat[:, 1 : 2 * n : 2] / two_h * wblk
    dp[:, 2 * n] = np.sign(flat[:, -1]) * norm * out["dtau"] / (4.0 * hs)
    return {
        "p": (norm * out["val"]).reshape(shape),
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


def log_kernel_derivatives(params: GroupParams, h: float, coords, spec=None):
    """Left horizontal components (X ln p_h, Y ln p_h, ...), shape (..., 2n),
    and d/dt ln p_h, shape (...), at flat points (..., 2n+1), from one
    `kernel_derivatives` pass.  Raises KernelConditioningError when a value
    is at the positivity floor or within twice its error estimate."""
    coords = np.asarray(coords, dtype=float)
    out = kernel_derivatives(params, h, coords, spec)
    _require_conditioned(out["p"], out["err"])
    egrad = out["dp"] / out["p"][..., None]
    return horizontal_components(params, egrad, coords, "left"), egrad[..., -1]


def scaling_deviation(params: GroupParams, h, left, left_err, right, right_err):
    """Scaling-law deviation |h^{n+1} p_h(z, t) - p_1(z/sqrt h, t/h)| relative
    to the right side, and the summed relative error estimates of both
    sides; elementwise over arrays of h and kernel values."""
    dev = np.abs(h ** (params.n + 1) * left - right) / right
    return dev, left_err / left + right_err / right


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


def integrate_radial(params: GroupParams, func, rho_max, t_max, scale=1.0):
    """Integrate func over the whole group assuming it depends on z only
    through the block norms.  Reduces to an (l+1)-dim composite tensor
    Gauss rule (16 nodes per panel) with the block surface factors
    rho^{2k-1}; `scale` sets the panel width (use sqrt(h) scaling in rho
    and h scaling in t so the kernel's analyticity strip is resolved).

    func maps block norms zsq (m1, 1, l) and t nodes (1, m2) to values
    broadcastable to (m1, m2), so `kernel_zsq` can serve as the integrand
    as it is.  func sees the block-norm rows in blocks of at most about
    `_RADIAL_BLOCK` (row, t) entries, which bounds the memory of a kernel
    integrand.
    """
    gl = np.polynomial.legendre.leggauss(16)

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
    rows = max(1, _RADIAL_BLOCK // t_nodes.size)
    total = 0.0
    for s in range(0, w_rho.size, rows):
        w = w_rho[s : s + rows]
        vals = func(rho[s : s + rows, None, :] ** 2, t_nodes[None, :])
        total += w @ np.broadcast_to(vals, (w.size, t_wts.size)) @ t_wts
    return float(total)
