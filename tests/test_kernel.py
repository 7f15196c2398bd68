"""Heat kernel quadrature: anchor value, scaling, symmetries, derivatives."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nilheat.kernel as ker
from nilheat.distance import (
    distance_squared_arrays,
    mu_prime,
    solve_theta_arrays,
)
from nilheat.groups import block_norms_sq_flat, dilate_flat
from nilheat.kernel import (
    KernelConditioningError,
    KernelValue,
    QuadratureError,
    QuadratureSpec,
    check_kernel_comparison,
    integrate_radial,
    kernel_derivatives,
    kernel_points,
    kernel_product_grid,
    kernel_zsq,
    log_kernel_derivatives,
    scaling_deviation,
)
from nilheat.sampling import CloudSpec, kernel_feasible_mask, philox, uniform_box


@pytest.fixture(scope="module")
def sinh_moment_oracle():
    """High-resolution independent value of int_R lambda/sinh(lambda)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    half = mp.quad(lambda x: x / mp.sinh(x), [0, mp.inf])
    return 2.0 * float(half)


def _line_oracle(params, zsq, t):
    """p_1(z, t) by `mpmath` on the line Im lambda = sigma near the saddle:
    e^{-sigma tau} int_0^X Re(e^{i x tau} E(x + i sigma)) dx, tau = |t|/4,
    with breakpoints at the saddle width 1/sqrt(1 + kappa), or a quarter
    of the cosine period if that is shorter (with a full period per panel
    Gauss-Legendre was 1e-13 off at |t| = 202, and with half a period 6e-11
    off at |t| = 73), and X where E has decayed by e^-45."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    zsq = [float(z) for z in zsq]
    tau = abs(t) / 4.0
    sigma = 0.0
    if t != 0.0:
        theta, branch, _ = solve_theta_arrays(params, np.array(zsq), t)
        sigma = 0.95 * math.pi if branch == 2 else min(abs(float(theta)), 0.95 * math.pi)
    a = np.asarray(params.a)
    kappa = float(np.sum(np.array(zsq) * a * a * mu_prime(a * sigma))) / 4.0
    end = (45.0 + sum(zsq) / 4.0) / float(np.dot(params.k, a) + np.dot(zsq, a) / 4.0) + 5.0
    width = min(1.0 / math.sqrt(1.0 + kappa), 0.5 * math.pi / max(tau, 1.0))
    s, tm = mp.mpf(sigma), mp.mpf(tau)

    def integrand(x):
        lam = mp.mpc(x, s)
        expo = 1j * x * tm - s * tm
        for aj, kj, zj in zip(params.a, params.k, zsq):
            w = aj * lam
            expo += kj * mp.log(w / mp.sinh(w)) - mp.mpf(zj) * w * mp.coth(w) / 4
        return mp.re(mp.exp(expo))

    nodes = [mp.mpf(width) * k for k in range(int(end / width) + 2)]
    return float(mp.quad(integrand, nodes, method="gauss-legendre")) * (4.0 * math.pi) ** (
        -(params.n + 1)
    )


# (block norms, t) from the t = 0 slice to 39 log-units of real-line
# cancellation, with a boundary-branch point and two noniso ray nodes of
# the lemma6 suite (|t| = 67.5 and 201.9)
_ORACLE_CLOUD = {
    "h1": [
        ([0.0], 0.0),
        ([1.5], -4.0),
        ([0.05], 15.0),
        ([0.01], 30.0),
        ([6.08], -72.9),
    ],
    "noniso": [
        ([0.3, 0.4], 0.5),
        ([2.0, 0.01], 20.0),
        ([0.0, 0.0], 30.0),
        ([6.876948773940537, 7.570524017438181], -67.45546912843153),
        ([0.004519025926464924, 200.15548986153945], -201.94903021505715),
    ],
}


@pytest.mark.parametrize("group", ["h1", "noniso"])
def test_kernel_against_line_oracle(group, request):
    params = request.getfixturevalue(group)
    zsq = np.array([z for z, _ in _ORACLE_CLOUD[group]])
    t = np.array([t for _, t in _ORACLE_CLOUD[group]])
    exponents = (distance_squared_arrays(params, zsq, t) - np.sum(zsq, axis=-1)) / 4.0
    assert exponents.min() < 0.5 and exponents.max() > 33.0
    vals, errs = kernel_zsq(params, 1.0, zsq, t)
    for v, e, z, tt in zip(vals, errs, zsq, t):
        want = _line_oracle(params, z, tt)
        assert abs(v - want) <= 1e-12 * want
        assert e < 1e-5 * v


def test_origin_anchor_against_oracle(any_group):
    # p_1(0) = (4 pi)^{-(n+1)} int_0^inf prod_j (a_j lam / sinh a_j lam)^{k_j} dlam
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    params = any_group

    def integrand(lam):
        return mp.fprod((a * lam / mp.sinh(a * lam)) ** k for k, a in zip(params.k, params.a))

    want = float(mp.quad(integrand, [0, 1, 4, 16, mp.inf])) * (4.0 * math.pi) ** (-(params.n + 1))
    value, _ = kernel_zsq(params, 1.0, np.zeros(params.l), 0.0)
    assert float(value) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_ray_block_values_above_their_errors(noniso, monkeypatch):
    # every node of a 250-ray lemma6 block, 1,344 of them at |t| >= 160
    import nilheat.polar as polar

    calls = []

    def recording_kernel_zsq(params, h, zsq, t, spec=None, **kwargs):
        out = kernel_zsq(params, h, zsq, t, spec, **kwargs)
        calls.append((np.asarray(t), *out))
        return out

    monkeypatch.setattr(polar, "kernel_zsq", recording_kernel_zsq)
    u, eta, _, _ = polar.sample_exterior_cloud(noniso, 250, 20250809)
    polar.ray_integrals(noniso, u, eta)
    t, vals, errs = (np.concatenate(arrs) for arrs in zip(*calls))
    assert np.sum(np.abs(t) >= 160.0) > 1000
    assert np.all(vals > 0.0)
    assert np.all(vals > errs)


def test_origin_value_against_oracle(h1, sinh_moment_oracle):
    # full-line moment is pi^2/2; the origin value is that over 2 (4 pi)^2
    assert sinh_moment_oracle == pytest.approx(math.pi**2 / 2, rel=1e-15)
    expected = sinh_moment_oracle / (2.0 * (4.0 * math.pi) ** 2)
    assert expected == pytest.approx(1.0 / 64.0, rel=1e-15)
    kv = KernelValue(*map(float, kernel_points(h1, 1.0, np.zeros(h1.dim))))
    assert abs(kv.value - expected) <= 1e-6
    assert abs(kv.value - expected) <= max(kv.error, 1e-12)


def test_h1_closed_form_slice(h1):
    # p_1(0, t) = sech(pi t / 8)^2 / 64 on the first Heisenberg group
    for t in (0.0, 0.7, 2.0, 6.0):
        v, e = kernel_zsq(h1, 1.0, np.array([0.0]), np.asarray(t))
        want = (1.0 / 64.0) / math.cosh(math.pi * t / 8.0) ** 2
        assert float(v) == pytest.approx(want, rel=1e-8)


def test_symmetries(any_group):
    params = any_group
    rng = philox(21, 0)
    pts = uniform_box(params, CloudSpec(40, 1.2, 1.2, 3))
    v, _ = kernel_points(params, 1.0, pts)
    v_t, _ = kernel_points(params, 1.0, pts * np.r_[np.ones(params.dim - 1), -1.0])
    v_z, _ = kernel_points(params, 1.0, pts * np.r_[-np.ones(params.dim - 1), 1.0])
    v_inv, _ = kernel_points(params, 1.0, -pts)
    assert np.max(np.abs(v - v_t) / v) <= 1e-12
    assert np.max(np.abs(v - v_z) / v) <= 1e-12
    assert np.max(np.abs(v - v_inv) / v) <= 1e-12


def test_scaling_law(any_group):
    # h^{n+1} p_h(z, t) = p_1(z/sqrt h, t/h), within the error estimates
    params = any_group
    rng = philox(22, 1)
    pts = uniform_box(params, CloudSpec(60, 1.5, 1.5, 5))
    pts = pts[kernel_feasible_mask(params, pts, h=0.25)][:40]
    for i in range(pts.shape[0]):
        h = float(rng.uniform(0.25, 4.0))
        left = kernel_points(params, h, pts[i])
        right = kernel_points(params, 1.0, dilate_flat(params, 1.0 / math.sqrt(h), pts[i]))
        dev, rel_err = scaling_deviation(params, h, *left, *right)
        assert dev <= 10.0 * rel_err
        assert dev <= 1e-8


def test_scaling_explicit_factor(noniso):
    # h = 4 at (2 z0, 4 t0) carries exactly the 4^{n+1} prefactor
    g0 = np.array([0.3, 0.1, 0.2, -0.4, 0.0, 0.1, 0.4])
    g4 = np.r_[2.0 * g0[:-1], 4.0 * g0[-1]]
    v0, _ = kernel_points(noniso, 1.0, g0)
    v4, _ = kernel_points(noniso, 4.0, g4)
    assert v4 * 4.0 ** (noniso.n + 1) == pytest.approx(float(v0), rel=1e-10)


def test_kernel_positive_and_batch_consistent(noniso):
    pts = uniform_box(noniso, CloudSpec(25, 1.0, 1.0, 8))
    vals, errs = kernel_points(noniso, 0.7, pts)
    assert np.all(vals > 0)
    for i in (0, 7, 19):
        value, _ = kernel_points(noniso, 0.7, pts[i])
        assert float(value) == pytest.approx(float(vals[i]), rel=1e-9)


def test_derivatives_match_finite_differences(any_group):
    params = any_group
    rng = philox(23, 2)
    g = rng.uniform(-0.8, 0.8, params.dim)
    out = kernel_derivatives(params, 1.0, g)
    eps = 2e-6
    for d in range(params.dim):
        e = np.zeros(params.dim)
        e[d] = eps
        vp, _ = kernel_points(params, 1.0, g + e)
        vm, _ = kernel_points(params, 1.0, g - e)
        fd = (float(vp) - float(vm)) / (2 * eps)
        assert out["dp"][d] == pytest.approx(fd, rel=1e-5, abs=1e-12)


def test_log_derivatives(h1, noniso):
    for params in (h1, noniso):
        g_flat = 0.4 * np.ones(params.dim)
        grad, td = log_kernel_derivatives(params, 1.0, g_flat)
        assert grad.shape == (2 * params.n,) and td.shape == ()
        # central difference of log kernel in t
        eps = 1e-5
        up = g_flat.copy()
        up[-1] += eps
        dn = g_flat.copy()
        dn[-1] -= eps
        vu, _ = kernel_points(params, 1.0, up)
        vd, _ = kernel_points(params, 1.0, dn)
        fd = (math.log(float(vu)) - math.log(float(vd))) / (2 * eps)
        assert td == pytest.approx(fd, rel=1e-5)
    # at t = 0 the derivative vanishes by symmetry
    assert abs(log_kernel_derivatives(h1, 1.0, np.array([0.5, 0.2, 0.0]))[1]) <= 1e-10


def test_log_derivatives_batch(any_group):
    # a cloud (4, 3, 2n+1) gives each point's single-point values
    params = any_group
    pts = uniform_box(params, CloudSpec(12, 1.0, 1.0, 14)).reshape(4, 3, params.dim)
    grad, td = log_kernel_derivatives(params, 0.8, pts)
    assert grad.shape == (4, 3, 2 * params.n) and td.shape == (4, 3)
    for i, j in ((0, 0), (2, 1), (3, 2)):
        grad1, td1 = log_kernel_derivatives(params, 0.8, pts[i, j])
        assert_allclose(grad[i, j], grad1, rtol=1e-12)
        assert td[i, j] == pytest.approx(float(td1), rel=1e-12)


def test_gradient_vanishes_at_origin(any_group):
    grad = log_kernel_derivatives(any_group, 1.0, np.zeros(any_group.dim))[0]
    assert np.max(np.abs(grad)) <= 1e-10


def test_rotation_identity(noniso):
    pts = uniform_box(noniso, CloudSpec(30, 1.2, 1.0, 12))
    out = kernel_derivatives(noniso, 1.0, pts)
    n = noniso.n
    x, y = pts[:, 0 : 2 * n : 2], pts[:, 1 : 2 * n : 2]
    lhs = x * out["dp"][:, 1 : 2 * n : 2]
    rhs = y * out["dp"][:, 0 : 2 * n : 2]
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale


def test_conditioning_guard(h1):
    # |z|^2 = 3025: p_1 is about e^{-756}, below the positivity floor
    with pytest.raises(KernelConditioningError):
        log_kernel_derivatives(h1, 1.0, np.array([55.0, 0.0, 0.0]))
    # far out on the t axis, where the real-line cosine cancels 33
    # log-units, the saddle-line value is accurate and well conditioned
    g = np.array([0.1, 0.0, 45.0])
    value, _ = kernel_points(h1, 1.0, g)
    assert abs(value - _line_oracle(h1, [0.01], 45.0)) <= 1e-12 * value
    assert all(np.all(np.isfinite(v)) for v in log_kernel_derivatives(h1, 1.0, g))


def test_node_cap_guard(h1):
    # |t| = 1e200 needs a step far below the node cap's reach
    with pytest.raises(QuadratureError, match="cap"):
        kernel_zsq(h1, 1.0, np.array([0.0]), np.array(1e200))


def test_invalid_inputs(h1):
    with pytest.raises(ValueError):
        kernel_points(h1, 0.0, np.zeros(h1.dim))
    with pytest.raises(ValueError):
        QuadratureSpec(tol=-1.0)
    # bad h, t or block norm at every kernel entry point: (h, |z|^2, t)
    for h, zsq, t in [
        (math.nan, 0.5, 0.0),
        (math.inf, 0.5, 0.0),
        (-1.0, 0.5, 0.0),
        (1.0, 0.5, math.nan),
        (1.0, 0.5, -math.inf),
        (1.0, -0.5, 0.0),
        (1.0, math.nan, 0.0),
        (1.0, math.inf, 0.0),
    ]:
        with pytest.raises(ValueError):
            kernel_zsq(h1, h, np.array([[zsq]]), np.array([t]))
        with pytest.raises(ValueError):
            kernel_product_grid(h1, h, np.array([[zsq]]), np.array([t]))
        if not zsq < 0:  # a coordinate cannot carry a negative |z|^2
            with pytest.raises(ValueError):
                kernel_derivatives(h1, h, np.array([math.sqrt(zsq), 0.0, t]))
    with pytest.raises(ValueError):
        kernel_product_grid(h1, 1.0, np.empty((0, 1)), np.array([0.0]))
    with pytest.raises(ValueError):
        kernel_product_grid(h1, 1.0, np.array([[0.5]]), np.array([]))


def test_kernel_points_reject_points_of_another_group(h1, noniso):
    # a chart-layout row of noniso (6 coordinates) used to give a value
    for params, pts in ((noniso, np.full(6, 0.3)), (h1, np.full((2, 7), 0.3)), (h1, np.float64(0.3))):
        with pytest.raises(ValueError, match="trailing axis"):
            kernel_points(params, 1.0, pts)


def test_kernel_derivatives_reject_points_of_another_group(h1, noniso):
    # these used to fail in a reshape
    for params, pts in ((h1, np.full((2, 6), 0.3)), (noniso, np.full(6, 0.3))):
        with pytest.raises(ValueError, match="trailing axis"):
            kernel_derivatives(params, 1.0, pts)


def test_kernel_block_norms_need_one_per_block(h1, noniso):
    # one block norm used to broadcast onto both noniso blocks, and an h1
    # product grid read a two-entry row as two rows
    with pytest.raises(ValueError, match="trailing axis"):
        kernel_zsq(noniso, 1.0, [0.5], 0.3)
    with pytest.raises(ValueError, match="trailing axis"):
        kernel_product_grid(h1, 1.0, [[0.5, 0.2]], [0.1])
    with pytest.raises(ValueError, match="trailing axis"):
        kernel_zsq(h1, 1.0, 0.5, 0.3)


def test_refinement_consistency(noniso):
    pts = uniform_box(noniso, CloudSpec(6, 1.0, 1.0, 30))
    coarse = QuadratureSpec(tol=1e-8)
    fine = QuadratureSpec(tol=5e-9)
    v1, e1 = kernel_points(noniso, 1.0, pts, coarse)
    v2, _ = kernel_points(noniso, 1.0, pts, fine)
    assert np.all(np.abs(v1 - v2) <= np.maximum(e1, 1e-16))


def test_mass_normalization(h1):
    spec = QuadratureSpec(tol=1e-9)
    total = integrate_radial(
        h1, lambda zs, t: kernel_zsq(h1, 1.0, zs, t, spec)[0], rho_max=11.0, t_max=55.0
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_scaled_mass_normalization(h1):
    h = 0.5
    spec = QuadratureSpec(tol=1e-9)
    total = integrate_radial(
        h1,
        lambda zs, t: kernel_zsq(h1, h, zs, t, spec)[0],
        rho_max=11.0 * math.sqrt(h),
        t_max=55.0 * h,
        scale=h,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("h", [1.0, 0.5], ids=["1.0", "0.5"])
def test_product_grid_mass_normalization(h1, h):
    # integrate_radial hands its block-norm and t rules to the product-grid
    # view in row blocks, which bounds the memory of one call
    spec = QuadratureSpec(tol=1e-9)
    tracemalloc.start()
    try:
        total = integrate_radial(
            h1,
            lambda zs, t: kernel_product_grid(h1, h, zs, t, spec)[0],
            rho_max=11.0 * math.sqrt(h),
            t_max=55.0 * h,
            scale=h,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == pytest.approx(1.0, abs=1e-6)
    assert peak < 64 * 2**20


@pytest.mark.parametrize("group", ["h1", "noniso"])
def test_product_grid_is_kernel_zsq_on_the_product(group, request):
    # the view's rows and t values, broadcast by hand, give the same bits
    params = request.getfixturevalue(group)
    rng = philox(37, 0)
    zsq = rng.uniform(0.0, 3.0, (3, 2, params.l)) ** 2
    t = rng.uniform(-4.0, 4.0, (2, 3))
    vals, errs = kernel_product_grid(params, 0.7, zsq, t)
    assert vals.shape == errs.shape == (6, 6)
    v, e = kernel_zsq(params, 0.7, zsq.reshape(-1, 1, params.l), t.reshape(1, -1))
    np.testing.assert_array_equal(vals, v)
    np.testing.assert_array_equal(errs, e)


# complex nodes lambda = x + i sigma whose x_j = a_j lambda fall in all
# three branches of the node helpers on both groups: |x_j| < 1e-4, the
# middle range, Re x_j > 20, with sigma up to the top rung 59/64 pi
_BRANCH_NODES = np.array([0.0, 2e-5, 0.05, 0.7, 3.0, 12.0, 45.0, 90.0, 250.0])[:, None] + 1j * (
    np.array([0.0, 5e-5, 0.3, 1.5, 59.0 / 64.0 * math.pi])
)


@pytest.mark.parametrize("group", ["h1", "noniso"])
def test_envelope_tables_match_per_point_formula(group, request):
    params = request.getfixturevalue(group)
    lam = _BRANCH_NODES.ravel()
    x = np.multiply.outer(lam, params.a)
    assert (np.abs(x) < 1e-4).any() and (x.real > 20.0).any()
    assert ((np.abs(x) > 1e-4) & (x.real < 20.0)).any()
    zsq = philox(32, 0).uniform(0.0, 3.0, (5, params.l))
    zsq[0] = 0.0
    h = 0.7
    re, im = ker._log_envelope(zsq / (4.0 * h), ker._line_tables(params, lam))
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    want = np.empty(re.shape, dtype=complex)
    for n, node in enumerate(lam):
        lam_mp = mp.mpc(node.real, node.imag)
        for i in range(zsq.shape[0]):
            e = mp.mpf(1)
            for k, a, z in zip(params.k, params.a, zsq[i]):
                w = a * lam_mp
                ratio, xcoth = (w / mp.sinh(w), w * mp.coth(w)) if w != 0 else (1, 1)
                e *= ratio**k * mp.exp(-mp.mpf(z) * xcoth / (4 * h))
            want[i, n] = complex(mp.log(e))
    # log E carries an absolute rounding error of a few eps |log E|; its
    # imaginary part only matters modulo 2 pi
    tol = 4e-16 * (4.0 + np.abs(want))
    assert np.all(np.abs(re - want.real) <= tol)
    assert np.all(np.abs(np.angle(np.exp(1j * (im - want.imag)))) <= tol)


def test_two_sided_comparison(any_group):
    params = any_group
    cloud = uniform_box(params, CloudSpec(400, 1.5, 1.5, 41))
    cloud = cloud[kernel_feasible_mask(params, cloud)]
    rep = check_kernel_comparison(params, cloud)
    assert rep.passed
    assert 0 < rep.stats["ratio_min"] <= rep.stats["ratio_max"] < math.inf
    # ratio invariant under t -> -t
    flipped = cloud * np.r_[np.ones(params.dim - 1), -1.0]
    rep2 = check_kernel_comparison(params, flipped)
    assert rep2.stats["ratio_min"] == pytest.approx(rep.stats["ratio_min"], rel=1e-10)
    assert rep2.stats["ratio_max"] == pytest.approx(rep.stats["ratio_max"], rel=1e-10)


def test_comparison_requires_interior(noniso):
    bad = np.zeros((1, noniso.dim))
    bad[0, -1] = 2.0  # pure t axis: boundary branch, must be excluded
    rep = check_kernel_comparison(noniso, np.concatenate([bad, 0.3 * np.ones((1, noniso.dim))]))
    assert rep.exclusions == 1


def test_log_gradient_bound_along_ray(h1):
    # h |grad log p_h| / d stays bounded along a dilation ray
    base = np.array([0.4, 0.3, 0.2])
    ratios = []
    for s in (0.5, 1.0, 1.5, 2.0, 2.5):
        g_flat = base * np.r_[s, s, s * s]
        grad = log_kernel_derivatives(h1, 1.0, g_flat)[0]
        d = math.sqrt(
            float(distance_squared_arrays(h1, block_norms_sq_flat(h1, g_flat), g_flat[-1]))
        )
        ratios.append(float(np.sqrt(np.sum(grad**2))) / d)
    assert np.isfinite(ratios).all()
    assert max(ratios) <= 5.0 * min(ratios)


def test_panel_and_tensor_rule_exact_for_separable_polynomials():
    # p Gauss points per panel integrate degree 2p - 1 per axis exactly,
    # on non-uniform panels and through the tensor product
    p = 5
    gl = np.polynomial.legendre.leggauss(p)
    edges = [np.array([-1.0, -0.3, 0.2, 1.5]), np.array([0.0, 0.1, 0.7, 2.0, 2.25])]
    polys = [
        np.polynomial.Polynomial(np.linspace(1.0, -0.8, 2 * p)),
        np.polynomial.Polynomial(np.cos(np.arange(2 * p))),
    ]
    nodes, weights = zip(*(ker._panel_rule(e, *gl) for e in edges))
    for e, x, w, P in zip(edges, nodes, weights, polys):
        assert x.shape == w.shape == (p * (e.size - 1),)
        exact = P.integ()(e[-1]) - P.integ()(e[0])
        assert abs(w @ P(x) - exact) <= 1e-14 * abs(exact)
    pts, wt = ker._tensor_rule(nodes, weights)
    assert pts.shape == (nodes[0].size * nodes[1].size, 2) and wt.shape == (pts.shape[0],)
    exact = math.prod(P.integ()(e[-1]) - P.integ()(e[0]) for e, P in zip(edges, polys))
    got = wt @ (polys[0](pts[:, 0]) * polys[1](pts[:, 1]))
    assert abs(got - exact) <= 1e-14 * abs(exact)


def test_mixed_batch_matches_single_point_calls(noniso, monkeypatch):
    import nilheat.polar as polar

    # ray nodes: the block norms and t values one ray integral sends to the kernel
    calls = []

    def recording_kernel_zsq(params, h, zsq, t, spec=None, **kwargs):
        calls.append((np.array(zsq, dtype=float), np.array(t, dtype=float)))
        return kernel_zsq(params, h, zsq, t, spec, **kwargs)

    monkeypatch.setattr(polar, "kernel_zsq", recording_kernel_zsq)
    polar.ray_integral_check(noniso, np.array([0.4, 0.2, 0.0, 0.3, 0.8, 0.0]), 0.9)
    ray_zsq, ray_t = calls[0]
    pick = np.linspace(0, ray_t.size - 1, 8).astype(int)

    rng = philox(31, 0)
    zero_zsq = rng.uniform(0.0, 2.0, (6, noniso.l))
    far_zsq = rng.uniform(0.0, 1.0, (6, noniso.l))
    far_t = np.array([-30.5, -30.0, -29.5, 29.5, 30.0, 30.5])
    zsq = np.concatenate([zero_zsq, far_zsq, ray_zsq[pick]])
    t = np.concatenate([np.zeros(6), far_t, ray_t[pick]])
    vals, errs = kernel_zsq(noniso, 1.0, zsq, t)
    for i in range(t.size):
        v1, e1 = kernel_zsq(noniso, 1.0, zsq[i], t[i])
        assert abs(float(vals[i]) - float(v1)) <= 1e-13 * float(v1)


def test_batch_with_unreachable_tail_raises(h1):
    # the z = 0 point needs a cutoff far above lambda_max = 5, while the
    # far point alone would be fine
    spec = QuadratureSpec(lambda_max=5.0)
    kernel_zsq(h1, 1.0, np.array([[400.0]]), np.array([0.0]), spec)
    with pytest.raises(QuadratureError):
        kernel_zsq(h1, 1.0, np.array([[400.0], [0.0]]), np.array([0.0, 0.0]), spec)


@pytest.mark.parametrize("group", ["h1", "noniso"])
def test_per_point_h_rows_match_scalar_h_calls(group, request):
    # one time per point: each row of the batch agrees with its own
    # scalar-h call to rounding (BLAS picks its kernels by the row count)
    params = request.getfixturevalue(group)
    pts = uniform_box(params, CloudSpec(24, 1.5, 1.5, 17))
    pts[:3, -1] = 0.0
    hs = philox(18, 0).uniform(0.25, 4.0, size=pts.shape[0])
    hs[3:6] = (0.25, 1.0, 2.0)
    zsq = block_norms_sq_flat(params, pts)
    by_zsq, _ = kernel_zsq(params, hs, zsq, pts[:, -1])
    by_pts, _ = kernel_points(params, hs, pts)
    der = kernel_derivatives(params, hs, pts)
    for i, h in enumerate(hs):
        one = kernel_derivatives(params, float(h), pts[i])
        for got in (by_zsq[i], by_pts[i], der["p"][i]):
            assert abs(got - one["p"]) <= 1e-14 * one["p"]
        scale = np.max(np.abs(one["dp"]))
        assert np.all(np.abs(der["dp"][i] - one["dp"]) <= 1e-14 * scale)
        assert float(kernel_zsq(params, float(h), zsq[i], pts[i, -1])[0]) == one["p"]


def test_h_broadcasts_against_the_points(noniso):
    # h of shape (4, 1) against m points gives (4, m): row i is the cloud at h[i]
    pts = uniform_box(noniso, CloudSpec(5, 1.0, 1.0, 19))
    hs = np.array([[0.25], [0.5], [1.0], [2.0]])
    zsq = block_norms_sq_flat(noniso, pts)
    vals, errs = kernel_zsq(noniso, hs, zsq, pts[:, -1])
    assert vals.shape == errs.shape == (4, 5)
    assert kernel_points(noniso, hs, pts)[0].shape == (4, 5)
    der = kernel_derivatives(noniso, hs, pts)
    assert der["p"].shape == der["err"].shape == (4, 5)
    assert der["dp"].shape == (4, 5, noniso.dim)
    for i, h in enumerate(hs[:, 0]):
        assert_allclose(vals[i], kernel_zsq(noniso, h, zsq, pts[:, -1])[0], rtol=1e-14, atol=0)
        row = kernel_derivatives(noniso, h, pts)
        assert_allclose(der["p"][i], row["p"], rtol=1e-14, atol=0)
        assert_allclose(der["dp"][i], row["dp"], rtol=1e-14, atol=1e-14 * np.max(np.abs(row["dp"])))


@pytest.mark.parametrize(
    "zsq, t, name",
    [(0.0, 1e300, "tau = |t|/4h"), (1e300, 0.0, "Z_j = |z_j|^2/4h"), (0.0, -1e300, "tau = |t|/4h")],
)
def test_overflowing_tau_or_block_norm_is_rejected(h1, zsq, t, name):
    # h = 1e-150 has a finite prefactor, but |t|/4h or |z|^2/4h overflows:
    # a ValueError naming it, before any numpy warning, on both engines
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(name) + " overflows"):
            kernel_zsq(h1, 1e-150, [zsq], t)
        with pytest.raises(ValueError, match=re.escape(name) + " overflows"):
            kernel_product_grid(h1, 1e-150, [[zsq]], [t])
        # the bound takes the smallest h of an h array
        with pytest.raises(ValueError, match=re.escape(name) + " overflows"):
            kernel_zsq(h1, np.array([1.0, 1e-150]), [zsq], t)


def test_overflowing_grid_rung_is_a_quadrature_error(h1):
    # tau and Z_j are finite here, but the step count and cutoff they set
    # overflow: a QuadratureError before the grid key is packed, on both
    # entry points and with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zsq, t in ((1e307, 1e307), (9e306, 1e307)):
            with pytest.raises(QuadratureError, match="overflows"):
                kernel_zsq(h1, 1.0, [zsq], t)
            with pytest.raises(QuadratureError, match="overflows"):
                kernel_product_grid(h1, 1.0, [[zsq]], [t])


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e-200])
def test_bad_entry_in_an_h_array_raises(h1, bad):
    # 1e-200 makes the prefactor (4 pi h)^-2 overflow
    hs = np.array([1.0, bad, 0.5])
    pts = np.array([[0.3, 0.1, 0.2], [0.0, 0.4, -0.5], [0.2, 0.2, 0.0]])
    with pytest.raises(ValueError):
        kernel_zsq(h1, hs, block_norms_sq_flat(h1, pts), pts[:, -1])
    with pytest.raises(ValueError):
        kernel_points(h1, hs, pts)
    with pytest.raises(ValueError):
        kernel_derivatives(h1, hs, pts)
    with pytest.raises(ValueError):
        kernel_points(h1, hs[:, None], pts)
