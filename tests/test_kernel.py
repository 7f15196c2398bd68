"""Heat kernel quadrature: anchor value, scaling, symmetries, derivatives."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nilheat.kernel as ker
from nilheat.distance import distance_squared_arrays
from nilheat.groups import GroupPoint, block_norms_sq_flat, inverse, origin
from nilheat.kernel import (
    KernelConditioningError,
    KernelValue,
    QuadratureError,
    QuadratureSpec,
    check_kernel_comparison,
    check_scaling,
    integrate_radial,
    kernel,
    kernel_derivatives,
    kernel_points,
    kernel_product_grid,
    kernel_zsq,
    log_kernel_left_gradient,
    log_kernel_t_derivative,
)
from nilheat.sampling import CloudSpec, kernel_feasible_mask, philox, uniform_box


@pytest.fixture(scope="module")
def sinh_moment_oracle():
    """High-resolution independent value of int_R lambda/sinh(lambda)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    half = mp.quad(lambda x: x / mp.sinh(x), [0, mp.inf])
    return 2.0 * float(half)


def test_origin_value_against_oracle(h1, sinh_moment_oracle):
    # full-line moment is pi^2/2; the origin value is that over 2 (4 pi)^2
    assert sinh_moment_oracle == pytest.approx(math.pi**2 / 2, rel=1e-15)
    expected = sinh_moment_oracle / (2.0 * (4.0 * math.pi) ** 2)
    assert expected == pytest.approx(1.0 / 64.0, rel=1e-15)
    kv = kernel(h1, 1.0, origin(h1))
    assert isinstance(kv, KernelValue)
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
    params = any_group
    rng = philox(22, 1)
    pts = uniform_box(params, CloudSpec(60, 1.5, 1.5, 5))
    pts = pts[kernel_feasible_mask(params, pts, h=0.25)][:40]
    for i in range(pts.shape[0]):
        h = float(rng.uniform(0.25, 4.0))
        rep = check_scaling(params, h, GroupPoint.from_flat(params, pts[i]))
        assert rep.passed
        assert rep.stats["deviation"] <= 1e-8


def test_scaling_explicit_factor(noniso):
    # h = 4 at (2 z0, 4 t0) carries exactly the 4^{n+1} prefactor
    z0 = (np.array([0.3 + 0.1j]), np.array([0.2 - 0.4j, 0.1j]))
    g0 = GroupPoint(z0, 0.4)
    g4 = GroupPoint(tuple(2.0 * b for b in z0), 4 * 0.4)
    v0 = kernel(noniso, 1.0, g0).value
    v4 = kernel(noniso, 4.0, g4).value
    assert v4 * 4.0 ** (noniso.n + 1) == pytest.approx(v0, rel=1e-10)


def test_kernel_positive_and_batch_consistent(noniso):
    pts = uniform_box(noniso, CloudSpec(25, 1.0, 1.0, 8))
    vals, errs = kernel_points(noniso, 0.7, pts)
    assert np.all(vals > 0)
    for i in (0, 7, 19):
        kv = kernel(noniso, 0.7, GroupPoint.from_flat(noniso, pts[i]))
        assert kv.value == pytest.approx(float(vals[i]), rel=1e-9)


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
        g = GroupPoint.from_flat(params, g_flat)
        grad = log_kernel_left_gradient(params, 1.0, g)
        assert grad.shape == (2 * params.n,)
        td = log_kernel_t_derivative(params, 1.0, g)
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
    g0 = GroupPoint((np.array([0.5 + 0.2j]),), 0.0)
    assert abs(log_kernel_t_derivative(h1, 1.0, g0)) <= 1e-10


def test_gradient_vanishes_at_origin(any_group):
    grad = log_kernel_left_gradient(any_group, 1.0, origin(any_group))
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
    # far out on the t axis the oscillatory cancellation swamps the value
    g = GroupPoint((np.array([0.1 + 0j]),), 45.0)
    with pytest.raises(KernelConditioningError):
        log_kernel_left_gradient(h1, 1.0, g)


def test_panel_budget_guard(h1):
    spec = QuadratureSpec(tol=1e-10, panel_budget=8, osc_factor=8.0)
    g = GroupPoint((np.array([0.3 + 0j]),), 1.5)
    with pytest.raises(QuadratureError):
        kernel(h1, 0.25, g, spec)


def test_invalid_inputs(h1):
    with pytest.raises(ValueError):
        kernel(h1, 0.0, origin(h1))
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


def test_refinement_consistency(noniso):
    pts = uniform_box(noniso, CloudSpec(6, 1.0, 1.0, 30))
    coarse = QuadratureSpec(tol=1e-8)
    fine = QuadratureSpec(tol=5e-9)
    v1, e1 = kernel_points(noniso, 1.0, pts, coarse)
    v2, _ = kernel_points(noniso, 1.0, pts, fine)
    assert np.all(np.abs(v1 - v2) <= np.maximum(e1, 1e-16))


def test_mass_normalization(h1):
    spec = QuadratureSpec(tol=1e-9, osc_factor=2.0)
    total = integrate_radial(
        h1, lambda zs, t: kernel_zsq(h1, 1.0, zs, t, spec)[0], rho_max=11.0, t_max=55.0
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_scaled_mass_normalization(h1):
    h = 0.5
    spec = QuadratureSpec(tol=1e-9, osc_factor=2.0)
    total = integrate_radial(
        h1,
        lambda zs, t: kernel_zsq(h1, h, zs, t, spec)[0],
        rho_max=11.0 * math.sqrt(h),
        t_max=55.0 * h,
        scale=h,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("h", [1.0, 0.5])
def test_product_grid_mass_normalization(h1, h):
    # integrate_radial hands its block-norm and t rules to the product grid
    spec = QuadratureSpec(tol=1e-9, osc_factor=2.0)
    total = integrate_radial(
        h1,
        lambda zs, t: kernel_product_grid(h1, h, zs, t, spec)[0],
        rho_max=11.0 * math.sqrt(h),
        t_max=55.0 * h,
        scale=h,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


# lambda nodes whose x_j = a_j lambda fall in all three branches of the
# envelope helpers on both groups: x < 1e-4, the middle range, x > 30
_BRANCH_NODES = np.array([0.0, 2e-5, 9e-5, 0.05, 0.7, 3.0, 12.0, 45.0, 90.0, 250.0])


@pytest.mark.parametrize("group", ["h1", "noniso"])
def test_envelope_tables_match_per_point_formula(group, request):
    params = request.getfixturevalue(group)
    x = np.multiply.outer(_BRANCH_NODES, params.a)
    assert (x < 1e-4).any() and ((x > 1e-4) & (x < 30.0)).any() and (x > 30.0).any()
    zsq = philox(32, 0).uniform(0.0, 3.0, (5, params.l))
    zsq[0] = 0.0
    h = 0.7
    got = ker._log_envelope(h, zsq, ker._envelope_tables(params, _BRANCH_NODES))
    want = np.empty_like(got)
    for i in range(zsq.shape[0]):
        for n, lam in enumerate(_BRANCH_NODES):
            logw = sum(k * ker._w_over_sinh_log(a * lam) for k, a in zip(params.k, params.a))
            s = sum(z * ker._x_coth(a * lam) for z, a in zip(zsq[i], params.a))
            want[i, n] = logw - s / (4.0 * h)
    if params.l == 1:
        assert np.array_equal(got, want)
    else:
        assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("group", ["h1", "noniso"])
def test_decay_rate_is_minus_log_envelope_slope(group, request):
    params = request.getfixturevalue(group)
    lam = _BRANCH_NODES[1:]
    zsq = philox(33, 0).uniform(0.0, 3.0, (4, params.l))
    h = 0.7
    eps = 1e-6 * np.maximum(lam, 1.0)

    def log_e(nodes):
        return ker._log_envelope(h, zsq, ker._envelope_tables(params, nodes))

    fd = -(log_e(lam + eps) - log_e(lam - eps)) / (2.0 * eps)
    rate = ker._decay_rate(h, zsq, ker._rate_tables(params, lam))
    assert_allclose(rate, fd, rtol=1e-6, atol=1e-8)


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
        g = GroupPoint.from_flat(h1, g_flat)
        grad = log_kernel_left_gradient(h1, 1.0, g)
        d = math.sqrt(
            float(distance_squared_arrays(h1, block_norms_sq_flat(h1, g_flat), g_flat[-1]))
        )
        ratios.append(float(np.sqrt(np.sum(grad**2))) / d)
    assert np.isfinite(ratios).all()
    assert max(ratios) <= 5.0 * min(ratios)


def test_k15_integrates_polynomials_to_degree_22():
    for j in range(23):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert abs(ker._KX**j @ ker._KW - exact) <= 1e-14


def test_g7_nested_in_k15():
    gx, gw = np.polynomial.legendre.leggauss(7)
    assert_allclose(ker._KX[1::2], gx, rtol=0, atol=1e-15)
    assert_allclose(ker._G7W[1::2], gw, rtol=0, atol=1e-15)
    assert np.all(ker._G7W[0::2] == 0.0)


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

    def recording_kernel_zsq(params, h, zsq, t, spec=None):
        calls.append((np.array(zsq, dtype=float), np.array(t, dtype=float)))
        return kernel_zsq(params, h, zsq, t, spec)

    monkeypatch.setattr(polar, "kernel_zsq", recording_kernel_zsq)
    ray = polar.PolarPoint((np.array([0.4 + 0.2j]), np.array([0.3j, 0.8 + 0j])), 0.9)
    polar.ray_integral_check(noniso, ray)
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
        assert abs(float(vals[i]) - float(v1)) <= float(errs[i]) + float(e1)


def test_batch_with_unreachable_tail_raises(h1):
    # the z = 0 point keeps E/r far above tol/10 up to lambda_max = 5,
    # while the far point alone would be fine
    spec = QuadratureSpec(lambda_max=5.0)
    kernel_zsq(h1, 1.0, np.array([[400.0]]), np.array([0.0]), spec)
    with pytest.raises(QuadratureError):
        kernel_zsq(h1, 1.0, np.array([[400.0], [0.0]]), np.array([0.0, 0.0]), spec)
