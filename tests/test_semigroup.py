"""Diffusion sampler, semigroup routes, and the inequality harness."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nilheat import semigroup
from nilheat.groups import GroupParams, block_norms_sq_flat, dilate_flat, horizontal_components, multiply_flat
from nilheat.distance import distance_squared_arrays
from nilheat.kernel import QuadratureError, QuadratureSpec, kernel_derivatives, kernel_points, kernel_zsq
from nilheat.sampling import ball_bounding_box, philox, unit_ball_points
from nilheat.semigroup import (
    DiffusionSpec,
    _hgrad_power,
    _PATH_CHUNK,
    _mean_se,
    _mean_var,
    _simulate_chunk,
    TransformedField,
    ball_mean,
    check_cheeger,
    check_commutation,
    check_holder_corollary,
    check_integration_by_parts,
    check_li_inequality,
    check_log_sobolev_poincare,
    check_translation_dilation_reduction,
    grad_semigroup_components,
    sample_heat_points,
    semigroup_estimate,
)
from nilheat.suites import RunConfig, _family_and_points
from nilheat.testfuncs import TestFunction, indicator_like, linear_bump, standard_family

SPEC = DiffusionSpec(paths=12000, seed=77)


def test_sampler_z_moments(any_group):
    params = any_group
    for h in (0.25, 1.0):
        W = sample_heat_points(params, h, SPEC)
        zsq = np.sum(W[:, : 2 * params.n] ** 2, axis=-1)
        se = float(np.std(zsq) / math.sqrt(zsq.size))
        assert abs(float(np.mean(zsq)) - 4.0 * params.n * h) <= 3.0 * se


def test_sampler_small_h_concentration(h1):
    means = []
    for h in (0.1, 0.02):
        W = sample_heat_points(h1, h, SPEC)
        means.append(float(np.mean(np.sum(W[:, :2] ** 2, axis=-1))))
    # mean |z|^2 scales linearly in h
    assert means[1] / means[0] == pytest.approx(0.2, rel=0.15)


def test_sampler_chunk_layout(noniso):
    # rows [8192 i, 8192 (i + 1)) are chunk i's own Philox block; 9000 paths
    # are one full chunk and a short one of 808
    assert _PATH_CHUNK == 8192
    spec = DiffusionSpec(paths=9000, seed=5, stream=3)
    a = sample_heat_points(noniso, 0.7, spec)
    blocks = [_simulate_chunk(noniso, 0.7, spec, 0, 8192), _simulate_chunk(noniso, 0.7, spec, 1, 808)]
    assert [b.shape[0] for b in blocks] == [8192, 808]
    assert np.array_equal(a, np.concatenate(blocks))
    assert np.array_equal(a, sample_heat_points(noniso, 0.7, spec))


@pytest.fixture(scope="module")
def h1_unit_sample(h1):
    # 2M unit-time h1 endpoints, shared by the histogram and law tests
    return sample_heat_points(h1, 1.0, DiffusionSpec(paths=2_000_000, seed=12))


def test_sampler_histogram_matches_kernel(h1, h1_unit_sample):
    # 3d histogram against bin-integrated kernel values: each of the 8 bins
    # holds about 4,700 of the 2M draws, and is held at 4 binomial standard
    # errors of its kernel probability (at most 5.8 percent relative)
    W = h1_unit_sample
    edges_xy = np.linspace(-1.5, 1.5, 7)
    edges_t = np.linspace(-2.0, 2.0, 7)
    hist, _ = np.histogramdd(W, bins=(edges_xy, edges_xy, edges_t))
    prob = hist / W.shape[0]
    gl_x, gl_w = np.polynomial.legendre.leggauss(5)
    qspec = QuadratureSpec(tol=1e-8)
    checked = 0
    for ix in range(2, 4):
        for iy in range(2, 4):
            for it in range(2, 4):
                nodes = []
                wts = []
                for edges, idx in ((edges_xy, ix), (edges_xy, iy), (edges_t, it)):
                    mid = 0.5 * (edges[idx] + edges[idx + 1])
                    half = 0.5 * (edges[idx + 1] - edges[idx])
                    nodes.append(mid + half * gl_x)
                    wts.append(half * gl_w)
                mesh = np.meshgrid(*nodes, indexing="ij")
                pts = np.stack([m.ravel() for m in mesh], axis=-1)
                vals, _ = kernel_zsq(
                    h1, 1.0, block_norms_sq_flat(h1, pts), pts[:, -1], qspec
                )
                w = np.multiply.outer(np.multiply.outer(wts[0], wts[1]), wts[2]).ravel()
                expected = float(np.sum(vals * w))
                se = math.sqrt(expected * (1.0 - expected) / W.shape[0])
                assert abs(prob[ix, iy, it] - expected) <= 4.0 * se
                checked += 1
    assert checked == 8


def _levy_law_pulls(params, W, h, cases):
    """(mean - exact)/se of cos(mu t) e^{-s |z|^2} over the sample W ~ p_h,
    per (mu, s): by Levy's area formula, pair by pair, the exact mean is
    prod_i x_i / (x_i cosh x_i + 4 h s sinh x_i) with x_i = 4 a_i mu h."""
    zsq = np.sum(W[:, :-1] ** 2, axis=-1)
    pulls = []
    for mu, s in cases:
        x = 4.0 * params.pair_a * mu * h
        exact = float(np.prod(x / (x * np.cosh(x) + 4.0 * h * s * np.sinh(x))))
        mean, se = _mean_se(np.cos(mu * W[:, -1]) * np.exp(-s * zsq))
        pulls.append((mean - exact) / se)
    return pulls


def test_sampler_law_matches_levy_h1(h1, h1_unit_sample):
    # an Euler sampler with 200 steps loses about 1/200 of the area's
    # variance: on these 2M paths it reads 4.2, 4.4, 5.3 and 4.1 SE high
    pulls = _levy_law_pulls(h1, h1_unit_sample, 1.0, [(0.25, 0.0), (0.5, 0.0), (0.5, 0.25), (1.0, 0.25)])
    assert max(map(abs, pulls)) <= 4.0, pulls


def test_sampler_law_matches_levy_two_blocks(noniso):
    W = sample_heat_points(noniso, 0.5, DiffusionSpec(paths=400_000, seed=19))
    pulls = _levy_law_pulls(noniso, W, 0.5, [(0.5, 0.0), (1.0, 0.0), (0.5, 0.25), (1.0, 0.25)])
    assert max(map(abs, pulls)) <= 4.0, pulls


def test_markov_property(any_group):
    params = any_group
    one = indicator_like(params.dim, 80.0)
    val, se = semigroup_estimate(params, one, 1.0, np.zeros(params.dim), "mc", SPEC)
    assert abs(val - 1.0) <= 3.0 * max(se, 1e-12) + 1e-12


def test_semigroup_identity_at_zero_time(h1):
    # e^{h Delta} f -> f as h -> 0, first order in h (Monte Carlo route; the
    # quadrature route needs 2 sqrt(h) >= f's scale)
    f = standard_family(h1, count=4, seed=2)[2]
    g = f.center + 0.1 * f.scale
    spec = DiffusionSpec(paths=20000, seed=0)
    base = float(f.value(g))
    devs = []
    for h in (0.02, 0.01):
        v, _ = semigroup_estimate(h1, f, h, g, "mc", spec)
        devs.append(abs(v - base))
    assert devs[1] <= 0.65 * devs[0]  # O(h) decay


def test_mc_quadrature_agreement(h1):
    fam = standard_family(h1, count=6, seed=3)
    rng = philox(55, 0)
    for f in fam[2:4]:
        g = rng.uniform(-0.5, 0.5, h1.dim)
        vq, _ = semigroup_estimate(h1, f, 1.0, g, "quadrature", qspec=QuadratureSpec(tol=1e-9))
        vm, se = semigroup_estimate(h1, f, 1.0, g, "mc", SPEC)
        assert abs(vm - vq) <= 3.0 * se + 1e-12


def test_semigroup_composition_mc(noniso):
    # sampling h1 then h2 composes to h1 + h2 through the group law
    f = standard_family(noniso, count=3, seed=4)[2]
    W1 = sample_heat_points(noniso, 0.4, SPEC.with_stream(1))
    W2 = sample_heat_points(noniso, 0.8, SPEC.with_stream(2))
    W12 = sample_heat_points(noniso, 1.2, SPEC.with_stream(3))
    two = f.value(multiply_flat(noniso, W1, W2))
    one = f.value(W12)
    se = math.sqrt(two.var() / two.size + one.var() / one.size)
    assert abs(float(two.mean()) - float(one.mean())) <= 3.0 * se + 1e-12


def test_grad_semigroup_routes(h1):
    f = standard_family(h1, count=5, seed=6)[4]  # scale 4: quadrature from h = 4
    g = np.array([0.3, -0.2, 0.15])
    cq, _ = grad_semigroup_components(h1, f, 4.0, g, "quadrature", qspec=QuadratureSpec(tol=1e-9))
    cm, se = grad_semigroup_components(h1, f, 4.0, g, "mc", SPEC)
    assert np.all(np.abs(cq - cm) <= 3.0 * se + 1e-10)
    # finite differences of the quadrature value along the frame flows
    eps = 1e-4
    for pair, kind in ((0, "x"), (0, "y")):
        step = np.zeros(3)
        step[2 * pair if kind == "x" else 2 * pair + 1] = eps
        vp, _ = semigroup_estimate(
            h1, f, 4.0, multiply_flat(h1, g, step), "quadrature", qspec=QuadratureSpec(tol=1e-9)
        )
        vm_, _ = semigroup_estimate(
            h1, f, 4.0, multiply_flat(h1, g, -step), "quadrature", qspec=QuadratureSpec(tol=1e-9)
        )
        fd = (vp - vm_) / (2 * eps)
        col = 0 if kind == "x" else 1
        assert cq[col] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def _right_frame_means(params, f, h, g, spec, draw=sample_heat_points):
    """e^{h D} of the right frame of f at g on one sample: the column means
    of the right-frame components of grad f at g . W."""
    pts = multiply_flat(params, g, draw(params, h, spec))
    right = horizontal_components(params, f.gradient(pts), pts, "right")
    return [float(np.mean(right[:, c])) for c in range(2 * params.n)]


def test_gradient_at_origin_equals_right_frame_average(noniso):
    # at the origin the gradient components coincide with the semigroup of
    # the right-frame derivatives, sample by sample
    f = standard_family(noniso, count=4, seed=8)[1]
    g0 = np.zeros(noniso.dim)
    comps, _ = grad_semigroup_components(noniso, f, 0.6, g0, "mc", SPEC)
    rhs = _right_frame_means(noniso, f, 0.6, g0, SPEC)
    for column in range(2 * noniso.n):
        assert comps[column] == pytest.approx(rhs[column], rel=1e-10, abs=1e-12)


def test_constant_gradient_zero(h1):
    # plateau wide enough that every sampled endpoint sees the flat region
    const = TestFunction(
        np.zeros(3), 60.0, np.zeros((1, 3), dtype=int), np.ones(1), bump="plateau"
    )
    comps, _ = grad_semigroup_components(h1, const, 0.5, np.zeros(3), "mc", SPEC)
    assert np.max(np.abs(comps)) <= 1e-12


def test_commutation_routes(h1):
    f = standard_family(h1, count=5, seed=10)[4]
    g = np.array([0.25, -0.4, 0.2])
    rep = check_commutation(h1, f, 1.0, g, SPEC)
    assert rep.passed


def test_commutation_mc_draws_one_sample(h1, monkeypatch):
    calls = []
    draw = semigroup.sample_heat_points

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(semigroup, "sample_heat_points", counted)
    f = standard_family(h1, count=5, seed=10)[4]
    g = np.array([0.25, -0.4, 0.2])
    spec = DiffusionSpec(paths=4000, seed=3)
    rep = check_commutation(h1, f, 1.0, g, spec)
    assert len(calls) == 1
    # the same numbers as one semigroup_estimate per shifted point and the
    # right frame's column means on the same sample
    eps = 1e-4
    lhs = []
    rhs = _right_frame_means(h1, f, 1.0, g, spec, draw)
    for kind, c in (("x", 0), ("y", 1)):
        step = np.zeros(3)
        step[c] = eps
        v_plus = semigroup_estimate(h1, f, 1.0, multiply_flat(h1, step, g), "mc", spec)[0]
        v_minus = semigroup_estimate(h1, f, 1.0, multiply_flat(h1, -step, g), "mc", spec)[0]
        lhs.append((v_plus - v_minus) / (2.0 * eps))
    errs = np.abs(np.asarray(lhs) - np.asarray(rhs)) / max(float(np.max(np.abs(rhs))), 1e-6)
    assert rep.stats["per_field"] == {"x00": errs[0], "y00": errs[1]}
    assert len(calls) == 5


def test_commutation_takes_one_gradient(noniso, monkeypatch):
    # the right side reads every frame column from one gradient of f
    calls = []
    gradient = TestFunction.gradient

    def counted(self, coords):
        calls.append(coords.shape)
        return gradient(self, coords)

    monkeypatch.setattr(TestFunction, "gradient", counted)
    f = standard_family(noniso, count=5, seed=10)[4]
    g = np.array([0.3, -0.2, 0.4, 0.1, -0.25, 0.15, 0.2])
    rep = check_commutation(noniso, f, 1.0, g, DiffusionSpec(paths=4000, seed=3))
    assert len(rep.stats["per_field"]) == 2 * noniso.n
    assert calls == [(4000, noniso.dim)]


def test_commutation_linear_t(noniso):
    # f linear in t on a wide plateau: e^{hD}(X-hat f)(g) equals the
    # closed-form coefficient -2 a_i y_{i,j}(g) up to Monte Carlo error
    # (the endpoint-averaged part -2 a_i E[Im w] vanishes in expectation)
    direction = np.zeros(noniso.dim)
    direction[-1] = 1.0
    f = linear_bump(np.zeros(noniso.dim), 60.0, direction, bump="plateau")
    g = np.array([0.3, -0.2, 0.4, 0.1, -0.25, 0.15, 0.2])
    h = 0.5
    rhs = _right_frame_means(noniso, f, h, g, SPEC)[0]
    se = 2.0 * noniso.a[0] * math.sqrt(2.0 * h) / math.sqrt(SPEC.paths)
    assert rhs == pytest.approx(-2.0 * noniso.a[0] * g[1], abs=3.5 * se)


def test_ball_mean(any_group):
    params = any_group
    const = TestFunction(
        np.zeros(params.dim),
        6.0,
        np.zeros((1, params.dim), dtype=int),
        np.full(1, 2.5),
        bump="plateau",
    )
    val, _ = ball_mean(params, const, "mc", count=20000, seed=4)
    assert val == pytest.approx(2.5, abs=1e-12)
    # odd function integrates to zero over the symmetric ball
    direction = np.zeros(params.dim)
    direction[0] = 1.0
    odd = linear_bump(np.zeros(params.dim), 8.0, direction, bump="plateau")
    val, se = ball_mean(params, odd, "mc", count=100000, seed=5)
    assert abs(val) <= 3.5 * se
    f = standard_family(params, count=3, seed=12)[2]
    m1, se1 = ball_mean(params, f, "mc", count=150000, seed=6)
    if params.dim <= 3:
        m2, _ = ball_mean(params, f, "grid", grid_points=40)
        assert abs(m1 - m2) <= 3.0 * se1
    else:
        m2, se2 = ball_mean(params, f, "mc", count=150000, seed=60)
        assert abs(m1 - m2) <= 3.0 * math.hypot(se1, se2)


def test_unit_ball_points_keep_the_box_draw(any_group):
    # the box draw is the (count, 2n) z uniform, then the t uniform, on one
    # Philox stream; the ball keeps the rows with d < 1 in draw order
    params = any_group
    z_half, t_half = ball_bounding_box(params)
    rng = philox(11, 909)
    box = np.empty((5000, params.dim))
    box[:, :-1] = rng.uniform(-z_half, z_half, size=(5000, 2 * params.n))
    box[:, -1] = rng.uniform(-t_half, t_half, size=5000)
    d2 = distance_squared_arrays(params, block_norms_sq_flat(params, box), box[:, -1])
    pts = unit_ball_points(params, 5000, 11, 909)
    assert 0 < pts.shape[0] < 5000
    assert np.array_equal(pts, box[d2 < 1.0])


def test_unit_ball_points_refuse_an_empty_sample(h1):
    # one box draw at seed 1 misses the ball: an error naming the count,
    # not an empty sample whose mean divides by zero
    with pytest.raises(ValueError, match="none of 1 draws"):
        unit_ball_points(h1, 1, 1, 909)


def test_li_inequality_report(h1):
    fam = standard_family(h1, count=10)
    pts = [np.zeros(3), np.array([0.4, -0.3, 0.2]), np.array([-0.8, 0.6, -0.4])]
    rep = check_li_inequality(h1, fam, pts, (0.25, 1.0), SPEC)
    assert rep.passed
    assert np.isfinite(rep.constant) and rep.constant > 0
    assert rep.stats["cases"] + rep.exclusions == len(fam) * len(pts) * 2


def test_li_constant_stable_under_refinement(h1):
    # doubling the path count moves the sup by at most its noise scale
    fam = standard_family(h1, count=6)
    pts = [np.zeros(3), np.array([0.4, -0.3, 0.2])]
    coarse = check_li_inequality(
        h1, fam, pts, (0.5, 1.0), DiffusionSpec(paths=8000, seed=5)
    )
    fine = check_li_inequality(
        h1, fam, pts, (0.5, 1.0), DiffusionSpec(paths=16000, seed=5)
    )
    assert abs(fine.constant - coarse.constant) <= 0.15 * coarse.constant + 0.02


def test_li_excludes_constants(h1):
    # a function with no gradient on the sample leaves no case: a failed verdict
    const = TestFunction(
        np.zeros(3), 60.0, np.zeros((1, 3), dtype=int), np.ones(1), bump="plateau"
    )
    rep = check_li_inequality(h1, [const], [np.zeros(3)], (0.5,), SPEC)
    assert rep.passed is False
    assert rep.exclusions == 1 and rep.stats["cases"] == 0
    assert rep.stats["ratio_mean"] is None and rep.constant == 0.0
    assert any("all cases excluded" in note for note in rep.notes)


def test_li_euclidean_direction_sanity(h1):
    # f depending on one x coordinate only (flat plateau in the other
    # directions): the twist plays no role and the gradient ratio reduces
    # to the one-dimensional heat semigroup, which is a contraction;
    # Gauss-Hermite gives the independent one-dimensional value.  The
    # plateau (|t| < 40) holds every sample point: t's tail is exponential,
    # P(|t| > 20) is about 2e-5 per path at h = 0.7.  The polynomial is
    # 2 (x/40) - 30 (x/40)^3 written in x/80.
    exps = np.array([[1, 0, 0], [3, 0, 0]])
    f = TestFunction(np.zeros(3), 80.0, exps, np.array([4.0, -240.0]), bump="plateau")
    g = np.array([0.5, 0.0, 0.0])
    h = 0.7
    W = sample_heat_points(h1, h, SPEC)
    pts = multiply_flat(h1, g, W)
    grad = f.gradient(pts)
    assert np.max(np.abs(grad[:, 1:])) == 0.0  # depends on x only
    num = abs(float(np.mean(grad[:, 0])))
    den = float(np.mean(np.abs(grad[:, 0])))
    assert num <= den * (1.0 + 1e-12)
    # independent one-dimensional evaluation of the numerator
    nodes, wts = np.polynomial.hermite_e.hermegauss(48)
    x1 = g[0] + nodes * math.sqrt(2.0 * h)

    def dphi(x):
        e = np.zeros((x.size, 3))
        e[:, 0] = x
        return f.gradient(e)[:, 0]

    oracle = float(np.sum(dphi(x1) * wts) / np.sum(wts))
    se = float(np.std(grad[:, 0]) / math.sqrt(grad.shape[0]))
    assert abs(float(np.mean(grad[:, 0])) - oracle) <= 3.0 * se


def test_cheeger_report(h1):
    fam = standard_family(h1, count=10)
    rep = check_cheeger(h1, fam, SPEC, ball_count=80000)
    assert rep.passed
    assert rep.stats["ball"] > 0 and rep.stats["global"] > 0
    assert rep.stats["complement"] <= rep.stats["global"] + 1e-12
    for key in ("global", "ball", "complement"):
        best = rep.stats["argmax"][key]
        assert best["scale"] == fam[best["f"]].scale
    # the recorded function alone reproduces each sup it set
    for key in ("global", "ball"):
        alone = check_cheeger(h1, [fam[rep.stats["argmax"][key]["f"]]], SPEC, ball_count=80000)
        assert alone.stats[key] == rep.stats[key]


def test_cheeger_support_outside_ball(h1):
    # support disjoint from the unit ball forces a zero ball average
    center = np.array([3.0, 0.0, 0.0])
    f = standard_family(h1, count=1, seed=44)[0]
    far = TestFunction(center, 0.5, f.exps, f.coeffs)
    m, _ = ball_mean(h1, far, "mc", count=40000, seed=9)
    assert m == 0.0


def test_lse_poe_report(h1):
    fam = standard_family(h1, count=8)
    pts = [np.zeros(3), np.array([0.3, 0.2, -0.1])]
    rep = check_log_sobolev_poincare(h1, fam, pts, (0.5, 1.0), SPEC)
    assert rep.passed
    assert rep.stats["entropy_constant"] >= 0
    assert rep.stats["variance_constant"] >= 0
    # entropy dominates variance for the same data (log-Sobolev implies
    # Poincare with the same constant up to the factor from the expansion)
    assert rep.stats["entropy_constant"] >= rep.stats["variance_constant"] * 0.5


def test_holder_corollary(h1):
    fam = standard_family(h1, count=6)
    pts = [np.zeros(3), np.array([0.4, -0.1, 0.3])]
    rep = check_holder_corollary(h1, fam, pts, (0.5, 1.0), SPEC, constant=1.5)
    assert rep.passed


def test_mean_se_counts_fill_rows():
    # the fill is dyadic, so the k = 0 sample is exactly constant on both sides
    rng = philox(3, 0)
    count, fill = 1000, -1.25
    for k in (0, 1, count // 2, count):
        kept = rng.standard_normal(k)
        dense = np.concatenate([kept, np.full(count - k, fill)])
        assert_allclose(_mean_se(kept, count, fill), _mean_se(dense), rtol=1e-14, atol=0)
    assert _mean_se(dense) == (float(np.mean(dense)), float(np.std(dense) / math.sqrt(count)))


@pytest.mark.parametrize(
    "params",
    [GroupParams(1, (1,), (1.0,)), GroupParams(2, (1, 2), (0.5, 1.0)), GroupParams(3, (2, 1, 1), (0.3, 0.6, 1.0))],
    ids=["h1", "noniso", "three"],
)
def test_gradient_case_reads_either_layout(params):
    # the sample is column-major; C-ordered copies of W and g . W give the
    # same floats, so the checks do not depend on the layout
    W = sample_heat_points(params, 0.5, DiffusionSpec(paths=5000, seed=3))
    assert W.flags.f_contiguous
    g = philox(3, 1).uniform(-1.0, 1.0, params.dim)
    pts = multiply_flat(params, g, W)
    W_c, pts_c = np.ascontiguousarray(W), np.ascontiguousarray(pts)
    assert np.array_equal(pts, multiply_flat(params, g, W_c))
    for f in standard_family(params)[:12]:
        num, hnorm = semigroup._gradient_case(params, f, g, W, pts)
        num_c, hnorm_c = semigroup._gradient_case(params, f, g, W_c, pts_c)
        assert num == num_c and np.array_equal(hnorm, hnorm_c)


# Dense references: the formulas of the Monte Carlo checks over f.jet on
# every sample row.  The checks reduce over in-support rows only, so sums
# group differently; values agree to 1e-12 relative.

def _dense_gradient_cases(params, family, points, h_values, dspec, stream):
    """(num, |grad f| on every row) of each (h, g, f) case, densely."""
    for hi, h in enumerate(h_values):
        W = sample_heat_points(params, h, dspec.with_stream(stream + hi))
        for g in points:
            pts = multiply_flat(params, g, W)
            for f in family:
                grad = f.jet(pts, 1)[1]
                comps = horizontal_components(params, grad, g - W, "left")
                num = math.sqrt(float(np.sum(np.mean(comps, axis=0) ** 2)))
                hnorm = _hgrad_power(params, grad, pts)
                yield num, hnorm


def _dense_mean_se(x):
    return float(np.mean(x)), float(np.std(x) / math.sqrt(x.size))


def _dense_li_constant(params, family, points, h_values, dspec):
    ratios, excluded = [], 0
    for num, hnorm in _dense_gradient_cases(params, family, points, h_values, dspec, 1):
        den, se = _dense_mean_se(hnorm)
        if den <= 10.0 * se:
            excluded += 1
        else:
            ratios.append(num / den)
    return max(ratios), float(np.mean(ratios)), len(ratios), excluded


def _dense_holder(params, family, points, h_values, dspec, constant):
    chain, excluded = -np.inf, 0
    for num, hnorm in _dense_gradient_cases(params, family, points, h_values, dspec, 80):
        mean1, se1 = _dense_mean_se(hnorm)
        mean2, se2 = _dense_mean_se(hnorm**2)
        if mean1 <= 10.0 * se1:
            excluded += 1
            continue
        rms = math.sqrt(mean2)
        rms_se = 0.5 * se2 / max(rms, 1e-300)
        chain = max(chain, (num - constant * rms) / (3.0 * constant * rms_se + 1e-300))
    return chain, excluded


def _dense_lse(params, family, points, h_values, dspec):
    """Also returns the entropy sup's condition number: the size of the two
    terms of E phi^2 log phi^2 - m2 log m2 over the size of their difference."""
    ent_sup, var_sup, cases, excluded, cond = 0.0, 0.0, 0, 0, 1.0
    for hi, h in enumerate(h_values):
        W = sample_heat_points(params, h, dspec.with_stream(50 + hi))
        for g in points:
            pts = multiply_flat(params, g, W)
            for f in family:
                val, grad = f.jet(pts, 1)
                phi = val + 0.5 + float(np.sum(np.abs(f.coeffs)))
                den, se = _dense_mean_se(_hgrad_power(params, grad, pts, power=2))
                if h * den <= 10.0 * h * se:
                    excluded += 1
                    continue
                m2 = float(np.mean(phi**2))
                first = float(np.mean(phi**2 * np.log(phi**2)))
                ent = first - m2 * math.log(m2)
                if ent / (h * den) > ent_sup:
                    ent_sup, cond = ent / (h * den), (abs(first) + abs(m2 * math.log(m2))) / ent
                var_sup = max(var_sup, (m2 - float(np.mean(phi)) ** 2) / (h * den))
                cases += 1
    return ent_sup, var_sup, cases, excluded, cond


def _dense_cheeger(params, family, dspec, ball_count):
    W = sample_heat_points(params, 1.0, dspec.with_stream(9))
    outside = distance_squared_arrays(params, block_norms_sq_flat(params, W), W[:, -1]) >= 1.0
    ball = unit_ball_points(params, ball_count, dspec.seed, 909)
    sups, excluded = {"global": 0.0, "ball": 0.0, "complement": 0.0}, 0
    for f in family:
        fW, gW = f.jet(W, 1)
        den, se = _dense_mean_se(_hgrad_power(params, gW, W))
        if den <= 10.0 * se:
            excluded += 1
            continue
        fB, gB = f.jet(ball, 1)
        m_f = float(np.mean(fB))
        ratios = {
            "global": float(np.mean(np.abs(fW - m_f))) / den,
            "complement": float(np.mean(np.abs(fW - m_f) * outside)) / den,
        }
        denB = float(np.mean(_hgrad_power(params, gB, ball)))
        if denB > 0:
            ratios["ball"] = float(np.mean(np.abs(fB - m_f))) / denB
        for key, ratio in ratios.items():
            sups[key] = max(sups[key], ratio)
    return sups, excluded


def _assert_close(got, want, rtol=1e-12):
    assert got == want or abs(got - want) <= rtol * max(abs(got), abs(want)), (got, want)


@pytest.mark.parametrize("group", ["h1", "noniso"])
def test_sparse_checks_match_dense_reference(group, request):
    params = request.getfixturevalue(group)
    spec = DiffusionSpec(paths=5000, seed=31)
    fam = standard_family(params, count=10)
    rng = philox(8, 1)
    points = [np.zeros(params.dim)] + [rng.uniform(-1.0, 1.0, params.dim) for _ in range(2)]
    hs = (0.5, 1.0)

    li = check_li_inequality(params, fam, points, hs, spec)
    constant, ratio_mean, cases, excluded = _dense_li_constant(params, fam, points, hs, spec)
    _assert_close(li.constant, constant)
    _assert_close(li.stats["ratio_mean"], ratio_mean)
    assert (li.stats["cases"], li.exclusions) == (cases, excluded)
    assert excluded > 0 and cases > 0

    holder = check_holder_corollary(params, fam, points, hs, spec, constant=1.5)
    chain, excluded = _dense_holder(params, fam, points, hs, spec, 1.5)
    _assert_close(holder.stats["worst_chain_violation"], chain)
    assert holder.exclusions == excluded

    lse = check_log_sobolev_poincare(params, fam, points, hs, spec)
    ent, var, cases, excluded, cond = _dense_lse(params, fam, points, hs, spec)
    # the entropy's two terms cancel (cond is about 7,000 on h1), so both sums
    # agree to the rounding of those terms, not to 1e-12 of their difference
    _assert_close(lse.stats["entropy_constant"], ent, rtol=max(1e-12, 1e-14 * cond))
    _assert_close(lse.stats["variance_constant"], var)
    assert (lse.stats["cases"], lse.exclusions) == (cases, excluded)

    cheeger = check_cheeger(params, fam, spec, ball_count=20000)
    sups, excluded = _dense_cheeger(params, fam, spec, 20000)
    for key, value in sups.items():
        _assert_close(cheeger.stats[key], value)
    assert cheeger.exclusions == excluded


def test_lse_entropy_per_case_against_mpmath(h1):
    # each case's entropy E phi^2 log phi^2 - m2 log m2 against a 30-digit
    # reference from the same phi; computed as that difference of two means,
    # the cancellation breaks the 1e-13 bound on these cases
    mpmath = pytest.importorskip("mpmath")
    spec = DiffusionSpec(paths=5000, seed=31)
    fam = standard_family(h1, count=10)
    points = [np.zeros(3), philox(8, 1).uniform(-1.0, 1.0, 3)]
    hs = (0.5, 1.0)
    ratios = []
    with mpmath.workdps(30):
        for hi, h in enumerate(hs):
            W = sample_heat_points(h1, h, spec.with_stream(50 + hi))
            for g in points:
                pts = multiply_flat(h1, g, W)
                for f in fam:
                    rows, (val, grad) = f.support_jet(pts, 1)
                    den, den_se = _mean_se(_hgrad_power(h1, grad, pts[rows], power=2), W.shape[0])
                    if den <= 10.0 * den_se:
                        continue
                    shift = 0.5 + float(np.sum(np.abs(f.coeffs)))
                    phi2 = (val + shift) ** 2
                    m2 = _mean_se(phi2, W.shape[0], shift * shift)[0]
                    fill = float(semigroup._entropy_terms(shift * shift, m2))
                    ent = _mean_se(semigroup._entropy_terms(phi2, m2), W.shape[0], fill)[0]
                    x = [mpmath.mpf(float(p)) ** 2 for p in val + shift]
                    xs = mpmath.mpf(shift) ** 2
                    rest = W.shape[0] - len(x)
                    m = (mpmath.fsum(x) + rest * xs) / W.shape[0]
                    ref = (mpmath.fsum(v * mpmath.log(v) for v in x) + rest * xs * mpmath.log(xs)) / W.shape[0]
                    ref -= m * mpmath.log(m)
                    assert abs(ent - ref) <= 1e-13 * ref, (ent, ref)
                    ratios.append(ent / (h * den))
    assert len(ratios) > 10
    rep = check_log_sobolev_poincare(h1, fam, points, hs, spec)
    assert rep.stats["entropy_constant"] == max(ratios)


def test_mean_var_is_two_pass():
    # a mean 1e4 times the spread: E x^2 - (E x)^2 keeps about 8 digits of
    # the variance, the two-pass form all of them, with and without fill rows
    mpmath = pytest.importorskip("mpmath")
    x = 1e4 + philox(9, 2).standard_normal(3000)
    for count, fill in ((x.size, 0.0), (4000, 1e4 + 0.25)):
        mean, var = _mean_var(x, count, fill)
        with mpmath.workdps(30):
            xs = [mpmath.mpf(float(v)) for v in x]
            rest = count - x.size
            m = (mpmath.fsum(xs) + rest * mpmath.mpf(fill)) / count
            ref = (mpmath.fsum((v - m) ** 2 for v in xs) + rest * (mpmath.mpf(fill) - m) ** 2) / count
        assert abs(var - ref) <= 1e-13 * ref
        assert mean == _mean_se(x, count, fill)[0]
        assert math.sqrt(var) / math.sqrt(count) == _mean_se(x, count, fill)[1]
    assert _mean_var(x) == (np.mean(x), np.var(x))


def test_lse_variance_per_case_against_mpmath(h1):
    # each case's variance of phi against a 30-digit two-pass reference from
    # the same phi; as m2 - (E phi)^2 it loses up to 7e-12 on these cases
    mpmath = pytest.importorskip("mpmath")
    spec = DiffusionSpec(paths=5000, seed=31)
    fam = standard_family(h1, count=10)
    points = [np.zeros(3), philox(8, 1).uniform(-1.0, 1.0, 3)]
    hs = (0.5, 1.0)
    ratios = []
    with mpmath.workdps(30):
        for hi, h in enumerate(hs):
            W = sample_heat_points(h1, h, spec.with_stream(50 + hi))
            count = W.shape[0]
            for g in points:
                pts = multiply_flat(h1, g, W)
                for f in fam:
                    rows, (val, grad) = f.support_jet(pts, 1)
                    den, den_se = _mean_se(_hgrad_power(h1, grad, pts[rows], power=2), count)
                    if den <= 10.0 * den_se:
                        continue
                    shift = 0.5 + float(np.sum(np.abs(f.coeffs)))
                    var = _mean_var(val + shift, count, shift)[1]
                    x = [mpmath.mpf(float(p)) for p in val + shift]
                    xs = mpmath.mpf(shift)
                    rest = count - len(x)
                    m = (mpmath.fsum(x) + rest * xs) / count
                    ref = (mpmath.fsum((v - m) ** 2 for v in x) + rest * (xs - m) ** 2) / count
                    assert abs(var - ref) <= 1e-13 * ref, (var, ref)
                    ratios.append(var / (h * den))
    assert len(ratios) > 10
    rep = check_log_sobolev_poincare(h1, fam, points, hs, spec)
    assert rep.stats["variance_constant"] == max(ratios)


def test_lse_small_h_ratios_against_mpmath(h1):
    # the suite's small-h variance numerators against a 30-digit reference
    from nilheat.suites import RunConfig, suite_lse_poe

    mpmath = pytest.importorskip("mpmath")
    cfg = RunConfig(
        group=h1,
        seed=3,
        diffusion_paths=3000,
        h_values=(1.0,),
        sizes={"family": 5, "li_points": 1},
    )
    ratios = suite_lse_poe(cfg).stats["small_h_ratios"]
    f = standard_family(h1, count=5)[4]
    for hi, h in enumerate((0.1, 0.05)):
        W = sample_heat_points(h1, h, cfg.diffusion(60 + hi))
        phi, grad = f.jet(W, 1)
        den = h * float(np.mean(_hgrad_power(h1, grad, W, power=2)))
        with mpmath.workdps(30):
            x = [mpmath.mpf(float(p)) for p in phi]
            m = mpmath.fsum(x) / len(x)
            ref = mpmath.fsum((v - m) ** 2 for v in x) / len(x) / den
        assert abs(ratios[hi] - ref) <= 1e-13 * ref, (ratios[hi], ref)


def test_integration_by_parts(h1):
    f = standard_family(h1, count=5, seed=14)[2]
    rep = check_integration_by_parts(h1, f, QuadratureSpec(tol=1e-9))
    assert rep.passed
    assert rep.stats["worst_rel_error"] <= 1e-3


def test_translation_dilation_reduction(h1):
    f = standard_family(h1, count=5, seed=16)[2]
    # identity case
    rep = check_translation_dilation_reduction(h1, f, 1.0, np.zeros(3))
    assert rep.passed
    # pure translation and a dilation case
    rep = check_translation_dilation_reduction(h1, f, 1.0, np.array([0.5, -0.3, 0.2]))
    assert rep.passed
    rep = check_translation_dilation_reduction(h1, f, 4.0, np.zeros(3))
    assert rep.passed


def test_reduction_passes_at_the_seed_4_li_point(h1):
    # the li suite's g0 at seed 4: the value cancels to 0.7 % of the
    # integrand's absolute mass, and a 14-node support grid missed it by
    # 2.6e-3 of the value
    fam, points = _family_and_points(RunConfig(group=h1, seed=4))
    rep = check_translation_dilation_reduction(h1, fam[2], 0.8, points[1])
    assert rep.passed, rep.stats
    assert rep.stats["value_rel_error"] <= 5e-4


def test_reduction_check_runs_one_kernel_pass_per_side(h1, monkeypatch):
    # each side builds its grid once and takes the value and the gradient
    # from one kernel_derivatives pass; no separate kernel_points pass
    calls = {"kernel_points": 0, "kernel_derivatives": 0}
    for name in calls:
        original = getattr(semigroup, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(semigroup, name, counted)
    f = standard_family(h1, 4, seed=2)[2]
    rep = check_translation_dilation_reduction(h1, f, 0.8, np.array([0.3, -0.2, 0.1]))
    assert rep.passed
    assert calls == {"kernel_points": 0, "kernel_derivatives": 2}


def _no_grid_or_kernel(monkeypatch):
    """Make every tensor-rule and kernel call of the semigroup fail."""
    def refused(*args, **kwargs):
        raise AssertionError("grid or kernel call")

    for name in ("_tensor_rule", "kernel_points", "kernel_derivatives"):
        monkeypatch.setattr(semigroup, name, refused)


def test_quadrature_route_needs_the_kernel_as_wide_as_f(h1, monkeypatch):
    # 2 sqrt(0.02) < f's scale of 1: a ValueError that names the sample
    # route, before any grid or kernel call and whatever the spec
    f = standard_family(h1, 4, seed=2)[2]
    g = np.array([0.3, -0.2, 0.1])
    capped = QuadratureSpec(lambda_max=1.0)
    assert 2.0 * math.sqrt(0.02) < f.scale
    with monkeypatch.context() as m:
        _no_grid_or_kernel(m)
        for qspec in (None, capped):
            with pytest.raises(ValueError, match='method="mc"'):
                semigroup_estimate(h1, f, 0.02, g, "quadrature", qspec=qspec)
            with pytest.raises(ValueError, match='method="mc"'):
                grad_semigroup_components(h1, f, 0.02, g, "quadrature", qspec=qspec)
    # the support route refuses a spec too small for its nodes
    with pytest.raises(QuadratureError):
        semigroup_estimate(h1, f, 0.8, g, "quadrature", qspec=capped)


@pytest.mark.parametrize("method", ["mc", "quadrature"])
@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
def test_semigroup_rejects_a_bad_time(h1, method, h, monkeypatch):
    # nan used to give (0.0, 0.0) on the sample, and the others numpy
    # warnings or a math domain error
    f = standard_family(h1, 4, seed=2)[2]
    g = np.array([0.3, -0.2, 0.1])
    _no_grid_or_kernel(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="h must be finite and positive"):
            semigroup_estimate(h1, f, h, g, method, SPEC)
        with pytest.raises(ValueError, match="h must be finite and positive"):
            grad_semigroup_components(h1, f, h, g, method, SPEC)
        with pytest.raises(ValueError, match="h must be finite and positive"):
            sample_heat_points(h1, h, SPEC)


def test_huge_quadrature_grids_raise_before_allocating(noniso, monkeypatch):
    # on the 7-dim group the support grid would hold 16^7 nodes and the
    # integration-by-parts grid 18^7: each refuses before it is built; at
    # h = 0.2 the kernel is narrower than f, and the route refuses first
    _no_grid_or_kernel(monkeypatch)
    fam = standard_family(noniso, 4, seed=2)
    g = np.zeros(noniso.dim)
    assert 2.0 * math.sqrt(0.2) < fam[2].scale <= 2.0
    for view in (semigroup_estimate, grad_semigroup_components):
        with pytest.raises(ValueError, match='method="mc"'):
            view(noniso, fam[2], 0.2, g, "quadrature")
        with pytest.raises(QuadratureError, match="tensor grid needs"):
            view(noniso, fam[2], 1.0, g, "quadrature")
    with pytest.raises(QuadratureError, match="tensor grid needs"):
        check_integration_by_parts(noniso, fam[2])


def test_integration_by_parts_outside_the_kernel_reach_fails(h1):
    # a support box wholly beyond |z_c| <= 10 of the origin gives no grid
    far = TestFunction(center=[30.0, 0.0, 0.0], scale=1.0, exps=[[0, 0, 0]], coeffs=[1.0])
    rep = check_integration_by_parts(h1, far)
    assert rep.passed is False
    assert rep.notes == ["FAILED: f's support box lies outside the unit-time kernel's reach"]


@pytest.mark.parametrize("group", ["h1", "noniso"])
@pytest.mark.parametrize("route", ["mc", "support"])
def test_semigroup_jet_matches_separate_routes(group, route, request):
    # value and gradient from one jet equal, bit for bit, the value and the
    # gradient evaluated each on its own: f at the nodes times kernel_points
    # for the value, the kernel partials or the chain rule for the gradient;
    # on the support grid the kernel runs on the nodes with f != 0 only
    params = request.getfixturevalue(group)
    f = standard_family(params, 4, seed=2)[2]  # scale 1
    g = 0.2 * np.sin(np.arange(1.0, params.dim + 1.0))
    h = {"mc": 0.5, "support": 0.8}[route]
    grid_points = 6 if params.dim == 3 else 3
    method = "mc" if route == "mc" else "quadrature"
    dspec = DiffusionSpec(paths=3000, seed=4)
    jet0 = semigroup._semigroup_jet(params, f, h, g, 0, method, dspec, None, grid_points)
    jet1 = semigroup._semigroup_jet(params, f, h, g, 1, method, dspec, None, grid_points)

    se = None
    if route == "support":
        nodes, wt = semigroup._support_grid(params, f, grid_points, h, g)
        shifted = multiply_flat(params, -g, nodes)
        fval = f.value(nodes)
        rows = np.flatnonzero(fval)
        assert 0 < rows.size < fval.size
        p, dp = np.zeros(fval.size), np.zeros(shifted.shape)
        p[rows] = kernel_points(params, h, shifted[rows])[0]
        dp[rows] = kernel_derivatives(params, h, shifted[rows])["dp"]
        value = float(np.sum(fval * p * wt))
        hat = horizontal_components(params, dp, shifted, "right")
        grad = -np.sum((fval * wt)[:, None] * hat, axis=0)
        # the kernel on every node gives the same sums but for rounding
        full_value = float(np.sum(fval * kernel_points(params, h, shifted)[0] * wt))
        full_dp = kernel_derivatives(params, h, shifted)["dp"]
        full_hat = horizontal_components(params, full_dp, shifted, "right")
        full_grad = -np.sum((fval * wt)[:, None] * full_hat, axis=0)
        assert abs(full_value - value) <= 1e-14 * abs(value)
        assert_allclose(full_grad, grad, rtol=1e-14, atol=0)
    else:
        W = sample_heat_points(params, h, dspec)
        wts = np.full(W.shape[0], 1.0 / W.shape[0])
        value, se = _mean_se(f.value(multiply_flat(params, g, W)))
        fgrad = f.gradient(multiply_flat(params, g, W))
        comps = horizontal_components(params, fgrad, g - W, "left")
        grad = np.sum(comps * wts[:, None], axis=0)
    assert value != 0.0 and np.all(grad != 0.0)
    assert jet0 == [(value, se)]
    assert jet1[0] == (value, se)
    np.testing.assert_array_equal(jet1[1][0], grad)
    if route == "mc":
        np.testing.assert_array_equal(jet1[1][1], np.std(comps, axis=0) / math.sqrt(W.shape[0]))
    else:
        assert jet1[1][1] is None
    # the public entry points are views of the jet
    assert semigroup_estimate(params, f, h, g, method, dspec, grid_points=grid_points) == (value, se)
    comps_view, _ = grad_semigroup_components(params, f, h, g, method, dspec, grid_points=grid_points)
    np.testing.assert_array_equal(comps_view, grad)


def test_transformed_field_consistency(h1):
    f = standard_family(h1, count=3, seed=18)[1]
    g = np.array([0.4, 0.1, -0.3])
    moved = TransformedField(h1, f, g, math.sqrt(2.0))
    rng = philox(64, 2)
    pts = rng.uniform(-0.6, 0.6, size=(40, 3))
    scaled = pts * math.sqrt(2.0)
    scaled[:, -1] = pts[:, -1] * 2.0
    direct = f.value(multiply_flat(h1, g, scaled))
    assert_allclose(moved.value(pts), direct, atol=0)
    # gradient by finite differences, at points whose images lie near f's
    # center, where f and its gradient do not vanish
    near = f.center + rng.uniform(-0.3, 0.3, size=(5, 3)) * f.scale
    inside = dilate_flat(h1, 1.0 / math.sqrt(2.0), multiply_flat(h1, -g, near))
    assert_allclose(moved.value(inside), f.value(near), rtol=1e-12)
    grad = moved.gradient(inside)
    assert np.all(np.abs(grad) > 0.0)
    eps = 1e-6
    for d in range(3):
        e = np.zeros(3)
        e[d] = eps
        fd = (moved.value(inside + e) - moved.value(inside - e)) / (2 * eps)
        assert np.max(np.abs(grad[:, d] - fd)) <= 1e-6 * (1 + np.max(np.abs(fd)))


def test_hgrad_field_matches_norm(h1):
    # the norm against X = d/dx + 2y d/dt and Y = d/dy - 2x d/dt written out
    f = standard_family(h1, count=3, seed=20)[1]
    g_flat = f.center + 0.2 * f.scale
    (fx, fy, ft), (x, y, _) = f.gradient(g_flat), g_flat
    norm = math.hypot(fx + 2.0 * y * ft, fy - 2.0 * x * ft)
    assert float(_hgrad_power(h1, f.gradient(g_flat), g_flat)) == pytest.approx(norm, rel=1e-12)
    sq = _hgrad_power(h1, f.gradient(g_flat), g_flat, power=2)
    assert float(sq) == pytest.approx(norm**2, rel=1e-12)


def _recording_kernel(monkeypatch, calls):
    """Record the points each semigroup kernel call receives."""
    for name in ("kernel_points", "kernel_derivatives"):
        original = getattr(semigroup, name)

        def recorded(params, h, coords, *args, _name=name, _original=original):
            calls.append((_name, np.array(coords)))
            return _original(params, h, coords, *args)

        monkeypatch.setattr(semigroup, name, recorded)


@pytest.mark.parametrize("order", [0, 1])
def test_support_route_runs_the_kernel_where_f_is_nonzero(h1, order, monkeypatch):
    f = standard_family(h1, 4, seed=2)[2]  # scale 1
    g = 0.2 * np.sin(np.arange(1.0, h1.dim + 1.0))
    nodes, _ = semigroup._support_grid(h1, f, 6, 0.8, g)
    shifted = multiply_flat(h1, -g, nodes)
    inside = f.value(nodes) != 0.0
    assert 0 < np.count_nonzero(inside) < inside.size
    calls = []
    _recording_kernel(monkeypatch, calls)
    semigroup._semigroup_jet(h1, f, 0.8, g, order, "quadrature", None, None, 6)
    assert len(calls) == 1
    name, coords = calls[0]
    assert name == ("kernel_derivatives" if order else "kernel_points")
    np.testing.assert_array_equal(coords, shifted[inside])


def test_support_route_with_f_zero_on_every_node(h1, monkeypatch):
    # the kernel's reach around g meets f's support box only in a corner
    # outside f's support ball: zeros, and no kernel call
    f = linear_bump(np.zeros(3), 1.0, np.array([1.0, 0.5, 0.2]))
    g = np.array([5.8, 5.8, 0.0])
    nodes, _ = semigroup._support_grid(h1, f, 6, 0.25, g)
    assert nodes is not None and not np.any(f.value(nodes))
    calls = []
    _recording_kernel(monkeypatch, calls)
    value = semigroup_estimate(h1, f, 0.25, g, "quadrature", grid_points=6)
    comps, se = grad_semigroup_components(h1, f, 0.25, g, "quadrature", grid_points=6)
    assert value == (0.0, None) and se is None
    np.testing.assert_array_equal(comps, np.zeros(2))
    assert calls == []


def test_integration_by_parts_runs_the_kernel_inside_the_support(h1, monkeypatch):
    f = standard_family(h1, count=5, seed=14)[2]
    calls = []
    _recording_kernel(monkeypatch, calls)
    rep = check_integration_by_parts(h1, f, QuadratureSpec(tol=1e-9))
    assert rep.passed
    lo, hi = f.support_box()
    rules = [semigroup._panel_rule([lo[d], hi[d]], *np.polynomial.legendre.leggauss(18)) for d in range(3)]
    pts, _ = semigroup._tensor_rule(*zip(*rules))
    rows, _ = f.support_jet(pts)
    assert [name for name, _ in calls] == ["kernel_derivatives"]
    assert 0 < rows.size < pts.shape[0]
    np.testing.assert_array_equal(calls[0][1], pts[rows])
