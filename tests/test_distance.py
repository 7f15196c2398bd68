"""Distance from the origin: monotone map, angle equation, closed forms."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nilheat import distance as distance_module
from nilheat.distance import (
    boundary_threshold,
    check_distance_equivalence,
    distance_squared_arrays,
    mu,
    mu_inverse,
    mu_prime,
    solve_theta_arrays,
)
from nilheat.groups import (
    GroupParams,
    block_norms_sq_flat,
    dilate_flat,
    inverse_flat,
    multiply_flat,
)
from nilheat.sampling import _CANCELLATION_BUDGET, CloudSpec, kernel_feasible_mask, philox, uniform_box


def test_mu_basic_values():
    assert mu(0.0) == 0.0
    # direct independent evaluation at pi/2
    w = math.pi / 2
    direct = (2 * w - math.sin(2 * w)) / (2 * math.sin(w) ** 2)
    assert direct == pytest.approx(math.pi / 2, abs=0)
    assert mu(w) == pytest.approx(direct, rel=1e-15)
    # oddness and monotonicity
    ws = np.linspace(-3.1, 3.1, 201)
    vals = mu(ws)
    assert_allclose(mu(-ws), -vals, atol=0)
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ValueError):
        mu(math.pi)


def test_mu_series_consistency():
    # both sides of the series cut against 40-digit values; the direct
    # formula for mu' cancels more than mu's (2.2e-13 relative at 0.0501)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for w in (1e-6, 9.9e-4, 1.01e-3, 0.02, 0.0499, 0.0501, 0.08, 0.3, 1.5, 2.9):
        wm = mp.mpf(w)
        want = (2 * wm - mp.sin(2 * wm)) / (2 * mp.sin(wm) ** 2)
        want_prime = 2 * (mp.sin(wm) - wm * mp.cos(wm)) / mp.sin(wm) ** 3
        assert mu(w) == pytest.approx(float(want), rel=5e-14, abs=0.0)
        assert mu(-w) == -mu(w)
        assert mu_prime(w) == pytest.approx(float(want_prime), rel=5e-13, abs=0.0)
    # derivative against finite differences
    for w in (0.3, 1.5, 2.9):
        fd = (mu(w + 1e-6) - mu(w - 1e-6)) / 2e-6
        assert mu_prime(w) == pytest.approx(fd, rel=1e-8)


def test_mu_inverse():
    assert mu_inverse(0.0) == 0.0
    rng = philox(3, 0)
    for w in rng.uniform(-3.0, 3.0, 50):
        assert mu_inverse(mu(w)) == pytest.approx(w, abs=1e-12)
    # large argument asymptote: the returned angle approaches pi and maps back
    theta = mu_inverse(1e9)
    assert math.pi - theta <= 1e-3
    assert mu(theta) == pytest.approx(1e9, rel=1e-9)
    # an array gives each scalar call's bits, in its own shape
    ws = np.linspace(-3.1, 3.1, 63)
    batch = mu_inverse(ws.reshape(7, 9))
    assert batch.shape == (7, 9)
    assert np.array_equal(batch.ravel(), [mu_inverse(float(v)) for v in ws])
    assert isinstance(mu_inverse(0.5), float)


def _solve(params, coords):
    """(theta, branch, residual) at flat points."""
    coords = np.asarray(coords, dtype=float)
    return solve_theta_arrays(params, block_norms_sq_flat(params, coords), coords[..., -1])


def _d2(params, coords):
    """Squared distance from the origin at flat points."""
    coords = np.asarray(coords, dtype=float)
    return distance_squared_arrays(params, block_norms_sq_flat(params, coords), coords[..., -1])


def test_solve_theta_branches(noniso):
    # flat noniso points: [x11, y11, x21, y21, x22, y22, t]
    # t = 0 with z != 0 gives theta = 0 on the interior branch (code 0)
    theta, branch, _ = _solve(noniso, [0.5, 0.0, 0.0, 0.2, 0.1, 0.0, 0.0])
    assert branch == 0 and theta == 0.0
    # sign of theta follows the sign of t
    rng = philox(4, 1)
    for _ in range(30):
        g = rng.standard_normal(noniso.dim)
        g[-1] *= 2.0
        theta, branch, residual = _solve(noniso, g)
        assert branch == 0
        assert math.copysign(1, theta) == math.copysign(1, g[-1])
        assert abs(residual) <= 1e-12 * (1 + abs(g[-1]))
    # z = 0 and t != 0: boundary branch (code 2), no angle
    theta, branch, _ = _solve(noniso, [0, 0, 0, 0, 0, 0, 1.5])
    assert branch == 2 and np.isnan(theta)
    # z_l = 0 with small t: the other blocks still carry an interior
    # solution (code 1)
    gi = np.array([2.0, 0, 0, 0, 0, 0, 0.3])
    thr = boundary_threshold(noniso, block_norms_sq_flat(noniso, gi))
    assert 0.3 < thr
    theta, branch, _ = _solve(noniso, gi)
    assert branch == 1 and abs(theta) < math.pi
    # and above the threshold it is the boundary branch
    gb = np.array([2.0, 0, 0, 0, 0, 0, thr * 1.01])
    assert _solve(noniso, gb)[1] == 2
    # one batch gives every row its own code
    rows = np.stack([gi, gb, -gb, np.r_[np.ones(6), 0.4]])
    assert _solve(noniso, rows)[1].tolist() == [1, 2, 2, 0]
    with pytest.raises(ValueError):
        _solve(noniso, np.zeros(noniso.dim))


def test_distance_examples(any_group):
    params = any_group
    rng = philox(5, 2)
    # d(z, 0) = |z|
    g = rng.standard_normal(params.dim)
    g[-1] = 0.0
    want = math.sqrt(float(np.sum(g**2)))
    assert math.sqrt(_d2(params, g)) == pytest.approx(want, rel=1e-10)
    # d(0, t)^2 = pi |t|
    gt = np.zeros(params.dim)
    gt[-1] = -2.3
    assert _d2(params, gt) == pytest.approx(math.pi * 2.3, rel=1e-12)
    # origin
    assert _d2(params, np.zeros(params.dim)) == 0.0
    # homogeneity
    gg = g.copy()
    gg[-1] = 0.7
    for r in (0.3, 2.0, 5.0):
        assert _d2(params, dilate_flat(params, r, gg)) == pytest.approx(
            r * r * _d2(params, gg), rel=1e-10
        )


def test_distance_form_agreement(any_group):
    params = any_group
    cloud = uniform_box(params, CloudSpec(2000, 2.0, 3.0, 17))
    zsq = np.stack(
        [np.sum(cloud[:, 2 * s.start : 2 * s.stop] ** 2, axis=-1) for s in params.block_slices()],
        axis=-1,
    )
    d2, theta, branch, form2 = distance_squared_arrays(params, zsq, cloud[:, -1], return_parts=True)
    mask = branch != 2
    assert np.max(np.abs(d2[mask] - form2[mask]) / d2[mask]) <= 1e-10
    # symmetries
    d2_tm = distance_squared_arrays(params, zsq, -cloud[:, -1])
    assert np.max(np.abs(d2_tm - d2)) <= 1e-12 * np.max(1 + d2)


def test_epsilon0(any_group):
    # eps0 = sin(theta)/theta = sinc(theta/pi), in (0, 1] on interior branches
    params = any_group
    g = np.full(params.dim, 0.5)
    g[-1] = 0.0
    assert np.sinc(_solve(params, g)[0] / math.pi) == 1.0
    rng = philox(6, 3)
    theta, branch, _ = _solve(params, rng.standard_normal((20, params.dim)))
    assert np.all(branch == 0)
    e = np.sinc(theta / math.pi)
    assert np.all((0.0 < e) & (e <= 1.0))
    assert_allclose(e, np.sin(theta) / theta, rtol=1e-15)
    # the boundary branch has no angle, so eps0 is undefined there
    gt = np.zeros(params.dim)
    gt[-1] = 1.0
    theta, branch, _ = _solve(params, gt)
    assert branch == 2 and np.isnan(theta)


def test_epsilon0_vanishes_toward_boundary(noniso):
    # shrink the top block at fixed t: theta climbs to pi, eps0 to 0
    s = np.array([0.5, 0.1, 0.02, 0.004])
    pts = np.zeros((s.size, noniso.dim))
    pts[:, 0], pts[:, 2], pts[:, -1] = 0.3, s, 2.0
    vals = np.sinc(_solve(noniso, pts)[0] / math.pi)
    assert np.all(np.diff(vals) < 0.0)
    assert vals[-1] < 0.05


def test_boundary_continuity(noniso):
    # along |t| -> threshold with z_l -> 0, the interior distance approaches
    # the boundary-branch value
    zsq_head = np.array([1.3, 0.0])
    thr = boundary_threshold(noniso, zsq_head)
    d2_bdy = float(distance_squared_arrays(noniso, zsq_head, np.asarray(thr)))
    for eps in (1e-4, 1e-6):
        zsq = np.array([1.3, eps**2])
        d2_int = float(distance_squared_arrays(noniso, zsq, np.asarray(thr)))
        assert d2_int == pytest.approx(d2_bdy, rel=1e-2 * eps ** 0.5 + 1e-6)
    zsq = np.array([1.3, (1e-8) ** 2])
    d2_int = float(distance_squared_arrays(noniso, zsq, np.asarray(thr)))
    assert d2_int == pytest.approx(d2_bdy, rel=1e-6)


def test_distance_between_invariance(noniso):
    # d(g, g2) = d(g^{-1} g2, origin) is left invariant
    rng = philox(7, 4)
    g, g2, g0 = rng.standard_normal((3, noniso.dim))

    def between(a, b):
        return math.sqrt(_d2(noniso, multiply_flat(noniso, inverse_flat(a), b)))

    assert between(g, g) == 0.0
    lhs = between(multiply_flat(noniso, g0, g), multiply_flat(noniso, g0, g2))
    assert lhs == pytest.approx(between(g, g2), rel=1e-10)


def test_equivalence_report(any_group):
    params = any_group
    rep = check_distance_equivalence(params, CloudSpec(5000, 2.0, 3.0, 99))
    assert rep.passed
    assert 0.0 < rep.stats["ratio_min"] <= rep.stats["ratio_max"] < math.inf
    # the axis values: ratio pi on the t axis, 1 on the t = 0 slice
    d2 = distance_squared_arrays(params, np.zeros((1, params.l)), np.asarray([1.7]))
    assert float(d2[0]) / 1.7 == pytest.approx(math.pi, rel=1e-12)


def test_cancellation_exponent(h1):
    # pure t-axis point: (pi |t| - 0)/4h log-units of real-line
    # cancellation, so the mask drops it once h falls below (pi 2/4)/budget
    edge = math.pi * 2.0 / 4.0 / _CANCELLATION_BUDGET
    point = np.array([[0.0, 0.0, 2.0]])
    assert kernel_feasible_mask(h1, point, h=edge * (1.0 + 1e-12))[0]
    assert not kernel_feasible_mask(h1, point, h=edge * (1.0 - 1e-12))[0]


THREE_BLOCKS = GroupParams(3, (1, 1, 2), (0.25, 0.6, 1.0))


def _oracle_rows(params, seed):
    """Rows (zsq, t) whose angles sweep 1e-8 .. pi - 1e-9, and their exact roots.

    t is the angle-equation right side at a chosen angle, rounded to a
    double; the reference root is that of the rounded t, found by mpmath at
    40 digits.  On multi-block groups half the rows have z_l = 0.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    angles = [1e-8, 1e-6, 1e-4, 9.99e-4, 1e-3, 1.001e-3, 2.1e-3, 4e-3, 1e-2, 0.1, 0.3, 1.0]
    angles += [2.0, 3.0, math.pi - 1e-3, math.pi - 1e-6, math.pi - 1e-9]
    a = [mp.mpf(v) for v in params.a]

    def rhs(theta, z):
        return sum(
            aj * (2 * aj * theta - mp.sin(2 * aj * theta)) / (2 * mp.sin(aj * theta) ** 2) * zj
            for aj, zj in zip(a, z)
        )

    rng = philox(seed, 11)
    zsq = rng.uniform(0.2, 2.0, size=(2 * len(angles), params.l))
    if params.l > 1:
        zsq[len(angles):, -1] = 0.0
    theta0 = np.array(angles * 2)
    t = np.empty(theta0.size)
    exact = np.empty(theta0.size)
    for i, (th, z) in enumerate(zip(theta0, zsq)):
        z = [mp.mpf(float(v)) for v in z]
        t[i] = float(rhs(mp.mpf(th), z))
        ti = mp.mpf(t[i])
        exact[i] = float(mp.findroot(lambda x: (rhs(x, z) - ti) / (1 + ti), mp.mpf(th)))
    return zsq, t, exact


@pytest.mark.parametrize("name", ["h1", "noniso", "three_blocks"])
def test_solve_theta_against_mpmath(name, h1, noniso):
    params = {"h1": h1, "noniso": noniso, "three_blocks": THREE_BLOCKS}[name]
    zsq, t, exact = _oracle_rows(params, 31)
    for sign in (1.0, -1.0):
        theta, branch, residual = solve_theta_arrays(params, zsq, sign * t)
        assert np.all(branch[: t.size // 2] == 0)
        assert np.all(branch[t.size // 2 :] == (1 if params.l > 1 else 0))
        assert np.max(np.abs(theta - sign * exact)) <= 1e-12
        assert np.all(np.isfinite(residual))


def _wide_cloud(params, count, seed):
    """Block norms and t over a box that also holds boundary and z_l = 0 rows."""
    coords = uniform_box(params, CloudSpec(count, 2.0, 3.0, seed))
    coords[::7, 2 * (params.n - params.k[-1]) : 2 * params.n] = 0.0
    coords[::11, : 2 * params.n] = 0.0
    return block_norms_sq_flat(params, coords), coords[:, -1]


def test_solve_theta_exactly_odd_in_t(any_group):
    params = any_group
    zsq, t = _wide_cloud(params, 3000, 41)
    theta, branch, residual = solve_theta_arrays(params, zsq, t)
    theta_m, branch_m, residual_m = solve_theta_arrays(params, zsq, -t)
    assert np.array_equal(theta_m, -theta, equal_nan=True)
    assert np.array_equal(residual_m, -residual)
    assert np.array_equal(branch_m, branch)
    d2 = distance_squared_arrays(params, zsq, t)
    assert np.array_equal(distance_squared_arrays(params, zsq, -t), d2)


def test_solve_theta_rows_independent_of_batch(any_group):
    # a row gives the same bits alone, in a batch of several blocks, and in
    # that batch shuffled, which changes every block's other rows
    params = any_group
    block = distance_module._SOLVE_BLOCK
    zsq, t = _wide_cloud(params, 2 * block + 300, 43)
    perm = philox(44, 0).permutation(t.size)
    solved = solve_theta_arrays(params, zsq, t)
    shuffled = solve_theta_arrays(params, zsq[perm], t[perm])
    for got, want in zip(shuffled, solved):
        assert np.array_equal(got, want[perm], equal_nan=True)
    parts = distance_squared_arrays(params, zsq, t, return_parts=True)
    parts_shuffled = distance_squared_arrays(params, zsq[perm], t[perm], return_parts=True)
    for got, want in zip(parts_shuffled, parts):
        assert np.array_equal(got, want[perm], equal_nan=True)
    for i in [0, 5, 7, 11, block - 1, block, t.size - 1]:
        one = solve_theta_arrays(params, zsq[i], t[i])
        assert np.array_equal(one[0], solved[0][i], equal_nan=True)
        assert one[1] == solved[1][i] and one[2] == solved[2][i]
        d2_one = distance_squared_arrays(params, zsq[i], t[i], return_parts=True)
        for got, want in zip(d2_one, parts):
            assert np.array_equal(got, want[i], equal_nan=True)


def test_non_finite_rows_return(noniso):
    zsq = np.array([[0.4, 0.9], [0.4, 0.9], [0.4, 0.9], [np.nan, 0.9], [0.4, np.inf], [0.4, 0.9]])
    t = np.array([np.nan, np.inf, -np.inf, 0.5, 0.5, 0.5])
    theta, branch, residual = solve_theta_arrays(noniso, zsq, t)
    assert np.all(np.isnan(theta[:5])) and np.all(np.isnan(residual[:5]))
    alone = solve_theta_arrays(noniso, zsq[-1], t[-1])
    assert theta[-1] == alone[0] and residual[-1] == alone[2]
    d2 = distance_squared_arrays(noniso, zsq, t)
    assert np.all(np.isnan(d2[:5]))
    assert d2[-1] == distance_squared_arrays(noniso, zsq[-1], t[-1])


def test_origin_rows_in_a_batch(h1, noniso):
    for params in (h1, noniso):
        zsq = np.zeros((3, params.l))
        zsq[1] = 1.0
        t = np.array([0.0, 0.5, 0.0])
        d2, theta, branch, form2 = distance_squared_arrays(params, zsq, t, return_parts=True)
        assert d2[0] == 0.0 and d2[2] == 0.0
        assert d2[1] == distance_squared_arrays(params, zsq[1], t[1]) > 0.0
        assert branch[0] == branch[2] == 2 and np.isnan(theta[0]) and np.isnan(form2[0])
    # the smallest mixed batch, as plain lists
    d2 = distance_squared_arrays(GroupParams(1, (1,), (1.0,)), [[0.0], [1.0]], [0.0, 0.5])
    assert d2[0] == 0.0 and d2[1] > 1.0
