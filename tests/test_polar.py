"""Chart coordinates: map, inverse, Jacobian, regions, ray integrals."""

import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nilheat.distance import distance_squared_arrays, solve_theta_arrays
from nilheat.groups import GroupParams, block_norms_sq_flat
from nilheat.kernel import kernel_zsq
import nilheat.kernel as ker
from nilheat.polar import (
    ANGLE_MARGIN,
    ANGLE_SPLIT,
    SIZE_SPLIT,
    PolarDomainError,
    check_change_of_variables,
    check_horizontal_rays,
    classify_region_arrays,
    det_bordered,
    jacobian_closed_form_arrays,
    jacobian_comparison_arrays,
    jacobian_matrix_flat,
    path_velocity,
    pj_estimate_arrays,
    psi_flat,
    psi_inverse_flat,
    ray_integral_check,
    ray_integrals,
    sample_exterior_cloud,
    speed_sq_arrays,
)
import nilheat.polar as polar_module
from nilheat.sampling import philox
from nilheat.suites import RunConfig, _random_polar_cloud, config_from_dict, suite_lemma6
from nilheat.testfuncs import linear_bump


def _random_polar(params, rng, eta=None):
    """A chart point (u_flat (2n,), eta) with the top block away from zero."""
    u = rng.standard_normal(2 * params.n)
    top = u[-2 * params.k[-1] :]
    if math.hypot(top[0], top[1]) < 0.1:
        top[0::2] += 0.5
    eta = float(rng.uniform(0.1, 2.9)) * rng.choice([-1.0, 1.0]) if eta is None else eta
    return u, eta


def _speed(params, u):
    """U = (4 sum a_j^2 |u_j|^2)^{1/2}; the path speed is U |eta|."""
    return float(np.sqrt(speed_sq_arrays(params, block_norms_sq_flat(params, u))))


def test_domain_validation(h1, noniso):
    # every ray or ray-check row must have u_l != 0 and 0 < |eta| < pi
    for u, eta in [([0.0, 0.0], 1.0), ([1.0, 0.0], 0.0), ([1.0, 0.0], 3.5), ([1.0, 0.0], -math.pi)]:
        with pytest.raises(PolarDomainError):
            ray_integrals(h1, [u], [eta])
        with pytest.raises(PolarDomainError):
            ray_integral_check(h1, u, eta)
        with pytest.raises(PolarDomainError):
            check_horizontal_rays(h1, [u], [eta])
    with pytest.raises(PolarDomainError):
        ray_integrals(h1, [[1.0, 0.0]], [math.nan])
    # one bad row fails the whole batch; only the top block must be nonzero
    u = np.array([[0.3, 0.1, 0.5, 0.0, 0.0, 0.2], [0.3, 0.1, 0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(PolarDomainError):
        ray_integrals(noniso, u, [0.9, 0.9])
    with pytest.raises(PolarDomainError):
        check_horizontal_rays(noniso, u, [0.9, 0.9])
    with pytest.raises(PolarDomainError):
        ray_integrals(noniso, u[:1], [-3.2])
    top_only = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.7])
    assert ray_integral_check(noniso, top_only, -0.9)["ratio"] > 0.0
    assert check_horizontal_rays(noniso, [top_only], [2.0]).passed


def test_block_norm_identity(any_group, rng):
    # |z_j|^2 = |u_j|^2 (2 - 2 cos(2 a_j eta))
    params = any_group
    u, eta = _random_polar(params, rng)
    got = block_norms_sq_flat(params, psi_flat(params, u, eta))
    want = block_norms_sq_flat(params, u) * (2.0 - 2.0 * np.cos(2.0 * np.asarray(params.a) * eta))
    assert_allclose(got, want, rtol=1e-12)


def test_small_eta_limit(any_group, rng):
    params = any_group
    u, eta = _random_polar(params, rng, eta=1e-8)
    assert np.max(np.abs(psi_flat(params, u, eta))) <= 1e-6


def test_angle_and_distance_on_chart(any_group, rng):
    params = any_group
    for _ in range(15):
        u, eta = _random_polar(params, rng)
        g = psi_flat(params, u, eta)
        zsq = block_norms_sq_flat(params, g)
        theta, branch, _ = solve_theta_arrays(params, zsq, g[-1])
        assert branch == 0 and theta == pytest.approx(eta, abs=1e-10)
        d = math.sqrt(distance_squared_arrays(params, zsq, g[-1]))
        assert d == pytest.approx(_speed(params, u) * abs(eta), rel=1e-8)
        assert math.copysign(1.0, eta) == math.copysign(1.0, g[-1])


def test_roundtrips(any_group, rng):
    params = any_group
    for _ in range(15):
        u, eta = _random_polar(params, rng)
        g = psi_flat(params, u, eta)
        u_back, eta_back = psi_inverse_flat(params, g)
        assert eta_back == pytest.approx(eta, abs=1e-10)
        assert_allclose(u_back, u, rtol=0, atol=1e-10)
        # the other direction, starting from an admissible group point
        assert_allclose(psi_flat(params, u_back, eta_back), g, rtol=0, atol=1e-10)


def test_psi_inverse_flat_matches_records(any_group, rng):
    # a batch against one point at a time, and against the chart preimage
    params = any_group
    pts = [_random_polar(params, rng) for _ in range(6)]
    coords = np.stack([psi_flat(params, u, eta) for u, eta in pts])
    u_flat, eta = psi_inverse_flat(params, coords)
    assert u_flat.shape == (6, 2 * params.n) and eta.shape == (6,)
    for i, (u, _) in enumerate(pts):
        u_one, eta_one = psi_inverse_flat(params, coords[i])
        assert np.array_equal(u_one, u_flat[i]) and eta_one == eta[i]
        assert_allclose(u_flat[i], u, rtol=0, atol=1e-10)


def test_psi_inverse_domain(noniso):
    with pytest.raises(PolarDomainError):
        psi_inverse_flat(noniso, np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2]))
    with pytest.raises(PolarDomainError):
        psi_inverse_flat(noniso, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]))


def test_jacobian_matrix_structure_and_fd(noniso):
    rng = philox(31, 0)
    u, eta = _random_polar(noniso, rng)
    M = jacobian_matrix_flat(noniso, u, eta)
    # diagonal blocks are exactly the rotation-like matrices
    pair = 0
    for i in range(noniso.l):
        C = 1.0 - math.cos(2 * noniso.a[i] * eta)
        S = math.sin(2 * noniso.a[i] * eta)
        for j in range(noniso.k[i]):
            r0 = 2 * pair
            assert M[r0, r0] == pytest.approx(C, abs=0)
            assert M[r0, r0 + 1] == pytest.approx(-S, abs=0)
            assert M[r0 + 1, r0] == pytest.approx(S, abs=0)
            pair += 1
    # finite-difference Jacobian of the chart map
    base = np.concatenate([u, [eta]])
    eps = 1e-6
    for d in range(noniso.dim):
        e = np.zeros(noniso.dim)
        e[d] = eps
        up = psi_flat(noniso, (base + e)[:-1], (base + e)[-1])
        dn = psi_flat(noniso, (base - e)[:-1], (base - e)[-1])
        fd = (up - dn) / (2 * eps)
        assert np.max(np.abs(fd - M[:, d])) <= 1e-6 * (1 + np.max(np.abs(fd)))


@pytest.mark.parametrize("group", ["h1", "noniso"])
def test_jacobian_matrix_flat_matches_records(group, request, rng):
    # a batch against one point at a time
    params = request.getfixturevalue(group)
    pts = [_random_polar(params, rng) for _ in range(4)]
    M = jacobian_matrix_flat(params, np.stack([u for u, _ in pts]), np.array([e for _, e in pts]))
    assert M.shape == (4, params.dim, params.dim)
    for i, (u, eta) in enumerate(pts):
        assert np.array_equal(M[i], jacobian_matrix_flat(params, u, eta))


def test_jacobian_homogeneity_in_u(noniso, rng):
    # border column and row scale linearly with u, the corner quadratically
    u, eta = _random_polar(noniso, rng)
    M1 = jacobian_matrix_flat(noniso, u, eta)
    c = 2.5
    M2 = jacobian_matrix_flat(noniso, c * u, eta)
    dim = noniso.dim
    assert_allclose(M2[: dim - 1, dim - 1], c * M1[: dim - 1, dim - 1], rtol=1e-13)
    assert_allclose(M2[dim - 1, : dim - 1], c * M1[dim - 1, : dim - 1], rtol=1e-13)
    assert M2[dim - 1, dim - 1] == pytest.approx(c * c * M1[dim - 1, dim - 1], rel=1e-13)


def _random_arrowhead(rng, m):
    """A random block-arrowhead matrix of odd size m: each row/column pair
    couples only to itself and to the last row and column."""
    M = rng.standard_normal((m, m))
    pair = np.arange(m) // 2
    M[(pair[:, None] != pair[None, :]) & (pair[:, None] < m // 2) & (pair[None, :] < m // 2)] = 0.0
    return M


def test_det_bordered_against_lu():
    rng = philox(32, 1)
    assert det_bordered(np.eye(5)) == 1.0
    for _ in range(300):
        M = _random_arrowhead(rng, 2 * int(rng.integers(0, 5)) + 1)
        lu = float(np.linalg.det(M))
        assert det_bordered(M) == pytest.approx(lu, rel=1e-9, abs=1e-12)


def _det_reference(M):
    """The textbook recursion, one matrix at a time and nothing memoised:
    peel a bordered 2x2 block, else expand along the first row; the 0x0
    minor is 1."""
    m = M.shape[0]
    if m == 0:
        return 1.0
    if m >= 3 and not (np.any(M[:2, 2 : m - 1]) or np.any(M[2 : m - 1, :2])):
        b1, b2, b3, b4, b5, b6 = M[0, 0], M[0, 1], M[0, -1], M[1, 0], M[1, 1], M[1, -1]
        b7, b8 = M[-1, 0], M[-1, 1]
        bracket1 = b1 * b5 - b2 * b4
        bracket2 = b3 * b4 * b8 + b2 * b6 * b7 - b1 * b6 * b8 - b3 * b5 * b7
        return bracket1 * _det_reference(M[2:, 2:]) + bracket2 * _det_reference(M[2:-1, 2:-1])
    if m == 1:
        return M[0, 0]
    return sum((-1.0) ** c * M[0, c] * _det_reference(np.delete(M[1:], c, axis=1)) for c in range(m))


def test_det_bordered_stack_matches_plain_recursion():
    rng = philox(33, 1)
    for m in (1, 3, 5, 7, 9):
        stack = np.stack([_random_arrowhead(rng, m) for _ in range(10)])
        got = det_bordered(stack.reshape(2, 5, m, m))
        assert got.shape == (2, 5)
        assert np.array_equal(got.ravel(), [det_bordered(M) for M in stack])
        assert np.array_equal(got.ravel(), [_det_reference(M) for M in stack])


def test_det_bordered_mixed_stack(noniso, rng):
    # chart Jacobians and random arrowheads of the same size in one stack
    m = noniso.dim
    jac = jacobian_matrix_flat(
        noniso, rng.standard_normal((6, 2 * noniso.n)), rng.uniform(0.1, 2.9, 6)
    )
    stack = np.concatenate([jac, [_random_arrowhead(rng, m) for _ in range(6)]])[rng.permutation(12)]
    got = det_bordered(stack)
    assert np.array_equal(got, [det_bordered(M) for M in stack])
    assert np.array_equal(got, [_det_reference(M) for M in stack])
    assert_allclose(got, np.linalg.det(stack), rtol=1e-9)


def test_det_bordered_rejects_bad_stacks():
    rng = philox(34, 1)
    stack = np.stack([_random_arrowhead(rng, 7) for _ in range(4)])
    stack[2, 3, 0] = 1.0  # one member couples two pairs
    with pytest.raises(ValueError):
        det_bordered(stack)
    # a singly bordered matrix with a dense trailing block
    dense = rng.standard_normal((7, 7))
    dense[:2, 2:6] = 0.0
    dense[2:6, :2] = 0.0
    with pytest.raises(ValueError):
        det_bordered(dense)
    for m in (2, 4, 6):
        with pytest.raises(ValueError):
            det_bordered(np.eye(m))
    with pytest.raises(ValueError):
        det_bordered(np.zeros((3, 4, 5)))
    with pytest.raises(ValueError):
        det_bordered(np.ones(4))


def test_det_bordered_matrix_gives_float():
    rng = philox(35, 1)
    for m in (1, 3, 5, 7):
        M = _random_arrowhead(rng, m)
        value = det_bordered(M)
        assert type(value) is float
        assert value == pytest.approx(float(np.linalg.det(M)), rel=1e-9)


def test_closed_form_jacobian(any_group, rng):
    params = any_group
    pts = [_random_polar(params, rng) for _ in range(40)]
    u = np.stack([u for u, _ in pts])
    eta = np.array([e for _, e in pts])
    M = jacobian_matrix_flat(params, u, eta)
    lu = np.linalg.det(M)
    cf = jacobian_closed_form_arrays(params, block_norms_sq_flat(params, u), eta)
    assert_allclose(cf, lu, rtol=1e-9)
    assert_allclose(det_bordered(M), lu, rtol=1e-9)
    assert np.all(cf > 0.0)


def test_closed_form_single_block_value():
    # l = k = a = 1 at eta = pi/2: independent evaluation of the formula
    u = np.array([0.7, 0.4])
    usq = float(np.sum(u**2))
    want = 8.0 * usq * (2.0 - 2.0 * math.cos(math.pi) - math.pi * math.sin(math.pi))
    assert want == pytest.approx(32.0 * usq, rel=1e-12)
    h1 = GroupParams(1, (1,), (1.0,))
    got = jacobian_closed_form_arrays(h1, block_norms_sq_flat(h1, u), math.pi / 2)
    assert got == pytest.approx(want, rel=1e-13)


# angles where 2 - 2 cos 2w cancels: next to pi, and small
_END_ANGLES = (math.pi - 2.5e-5, math.pi - 1e-3, 2.2e-3, 0.05)


def _mp_chart(params, usq, eta):
    """(t, J) of the chart at block norms usq and angle eta in 40-digit
    mpmath: t = sum_j 2 a_j |u_j|^2 (2w - sin 2w), w = a_j eta, and J as a
    sum of corner factors 2 - 2 cos 2w - 2w sin 2w."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    a = [mp.mpf(x) for x in params.a]
    w = [x * mp.mpf(eta) for x in a]
    fac = [4 * mp.sin(x) ** 2 for x in w]
    t = mp.fsum(2 * a[j] * mp.mpf(usq[j]) * (2 * w[j] - mp.sin(2 * w[j])) for j in range(params.l))
    J = mp.fsum(
        8 * a[j] ** 2 * mp.mpf(usq[j])
        * (2 - 2 * mp.cos(2 * w[j]) - 2 * w[j] * mp.sin(2 * w[j]))
        * mp.fprod(fac[i] ** (params.k[i] - (i == j)) for i in range(params.l))
        for j in range(params.l)
    )
    return float(t), float(J)


@pytest.mark.parametrize("eta", _END_ANGLES)
def test_closed_form_jacobian_against_mpmath(noniso, eta):
    usq = np.array([0.7, 1.3])
    want = _mp_chart(noniso, usq, eta)[1]
    got = jacobian_closed_form_arrays(noniso, usq, eta)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("eta", (0.0299, 0.0300001))
def test_chart_t_and_jacobian_against_mpmath_near_small_angles(noniso, eta):
    # both sides of |w| = 0.03, where a three-term chart series once
    # switched to the direct forms (1.2e-12 off in J and 7e-13 in t there)
    usq = np.array([0.7, 1.3])
    t, J = _mp_chart(noniso, usq, eta)
    u = np.array([math.sqrt(0.7), 0.0, math.sqrt(1.3), 0.0, 0.0, 0.0])
    assert_allclose(block_norms_sq_flat(noniso, u), usq, rtol=1e-15)
    assert jacobian_closed_form_arrays(noniso, usq, eta) == pytest.approx(J, rel=1e-13, abs=0.0)
    assert psi_flat(noniso, u, eta)[-1] == pytest.approx(t, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("eta", _END_ANGLES)
def test_psi_flat_against_mpmath(noniso, eta):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    u = np.array([0.0, 0.0, 0.0, 0.0, 0.8, 0.0])  # on the top block, a = 1
    want = (1 - mp.exp(-2j * mp.mpf(eta))) * mp.mpf(0.8)
    got = psi_flat(noniso, u, eta)
    assert got[4] == pytest.approx(float(want.real), rel=1e-14, abs=0.0)
    assert got[5] == pytest.approx(float(want.imag), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("seed", range(8))
def test_closed_form_jacobian_against_lu_on_the_suite_cloud(seed):
    # the polar suite's cloud and comparison, at 1e-12 rather than its 1e-9 gate
    for params in (
        GroupParams(1, (1,), (1.0,)),
        GroupParams(2, (1, 2), (0.5, 1.0)),
        GroupParams(3, (2, 1, 1), (0.3, 0.6, 1.0)),
    ):
        u, eta = _random_polar_cloud(params, 1000, seed)
        lu = np.linalg.det(jacobian_matrix_flat(params, u, eta))
        cf = jacobian_closed_form_arrays(params, block_norms_sq_flat(params, u), eta)
        assert_allclose(cf, lu, rtol=1e-12, atol=0.0)


def test_jacobian_power_law_comparison(any_group, rng):
    params = any_group
    us = rng.standard_normal((300, 2 * params.n))
    etas = rng.uniform(0.05, 3.1, 300) * rng.choice([-1.0, 1.0], 300)
    usq = np.stack(
        [np.sum(us[:, 2 * s.start : 2 * s.stop] ** 2, axis=-1) for s in params.block_slices()],
        axis=-1,
    )
    J = jacobian_closed_form_arrays(params, usq, etas)
    comp = jacobian_comparison_arrays(params, usq, etas)
    ratio = J / comp
    assert np.all(np.isfinite(ratio)) and ratio.min() > 0
    # evenness in eta
    J2 = jacobian_closed_form_arrays(params, usq, -etas)
    assert_allclose(J2, J, rtol=1e-13)


def test_region_examples(h1, noniso):
    def label(params, u, eta):
        return int(classify_region_arrays(params, block_norms_sq_flat(params, np.array(u)), eta))

    # |eta| = pi/8 with U|eta| >= 1 is region 1
    assert label(h1, [4.0, 0.0], math.pi / 8) == 1
    # |eta| = 3, huge top block: crowding exceeds the split
    crowd = 900.0 * (math.pi - 3.0)
    assert crowd > SIZE_SPLIT
    assert label(noniso, [0.0, 0.0, 0.0, 0.0, 30.0, 0.0], 3.0) == 2
    # |eta| = 3 with a moderate top block stays under the split
    assert 9.0 * (math.pi - 3.0) <= SIZE_SPLIT
    assert label(noniso, [0.0, 0.0, 0.0, 0.0, 3.0, 0.0], 3.0) == 3
    # inside the unit ball the label is undefined
    with pytest.raises(PolarDomainError):
        label(h1, [0.2, 0.0], 0.5)


def test_region_partition(noniso):
    u, eta, labels, diag = sample_exterior_cloud(noniso, 200, seed=3)
    assert set(np.unique(labels)) <= {1, 2, 3}
    assert all(v > 0 for v in diag["per_region"].values())
    usq = np.stack(
        [np.sum(u[:, 2 * s.start : 2 * s.stop] ** 2, axis=-1) for s in noniso.block_slices()],
        axis=-1,
    )
    relabeled = classify_region_arrays(noniso, usq, eta)
    assert np.array_equal(relabeled, labels)


def test_pj_estimate_wide_case(noniso):
    # in the wide-angle case the display is |u| |eta|^{2n+1} e^{-U^2 eta^2/4}
    usq = block_norms_sq_flat(noniso, np.array([1.0, 0.0, 2.0, 0.0, 0.0, 0.0]))
    U2 = 4.0 * (0.25 * 1.0 + 1.0 * 4.0)
    want = math.sqrt(5.0) * 1.0 ** (2 * noniso.n + 1) * math.exp(-U2 / 4.0)
    assert pj_estimate_arrays(noniso, usq, 1.0) == pytest.approx(want, rel=1e-12)
    assert math.pi - 1.0 >= ANGLE_MARGIN


def test_pj_ratio_bounded(h1):
    u, eta, labels, _ = sample_exterior_cloud(h1, 120, seed=9)
    usq = np.sum(u**2, axis=-1)[:, None]
    from nilheat.kernel import kernel_points

    coords = psi_flat(h1, u, eta)
    p, _ = kernel_points(h1, 1.0, coords)
    J = jacobian_closed_form_arrays(h1, usq, eta)
    est = pj_estimate_arrays(h1, usq, eta)
    ratio = p * J / est
    assert np.all(np.isfinite(ratio)) and ratio.min() > 0


def test_ray_integral_regions(noniso):
    u, eta, labels, _ = sample_exterior_cloud(noniso, 24, seed=5)
    for r in (1, 2, 3):
        idx = np.where(labels == r)[0][:2]
        for i in idx:
            out = ray_integral_check(noniso, u[i], eta[i])
            assert np.isfinite(out["ratio"]) and out["ratio"] > 0
            assert out["integral_error"] <= 1e-3 * abs(out["integral"])


def test_ray_integrals_match_single_rays(noniso):
    u, eta, labels, _ = sample_exterior_cloud(noniso, 24, seed=5)
    assert set(labels.tolist()) == {1, 2, 3}
    out = ray_integrals(noniso, u, eta)
    assert all(np.shape(val) == (24,) for val in out.values())
    for i in range(24):
        one = ray_integral_check(noniso, u[i], eta[i])
        assert out["J"][i] == one["J"]
        assert out["v_truncated_at"][i] == one["v_truncated_at"]
        assert one["region"] == f"R{out['region'][i]}" == f"R{labels[i]}"
        # batched and single kernel calls differ within both error estimates
        p_rel = out["kernel_rel_error"][i] + one["kernel_rel_error"]
        int_rel = (out["integral_error"][i] + one["integral_error"]) / abs(one["integral"])
        assert abs(out["p"][i] - one["p"]) <= p_rel * one["p"]
        assert abs(out["rhs"][i] - one["rhs"]) <= p_rel * one["rhs"]
        assert abs(out["integral"][i] - one["integral"]) <= int_rel * abs(one["integral"])
        assert abs(out["ratio"][i] - one["ratio"]) <= (p_rel + int_rel) * one["ratio"]


def test_ray_blocks_cut_in_order_of_eta(noniso, monkeypatch):
    # blocks are cut from the rays sorted by |eta|, and every result is
    # written back by ray index: a permuted cloud gives the same rays' values
    # bit for bit
    monkeypatch.setattr(polar_module, "_RAY_BLOCK", 5)
    u, eta, _, _ = sample_exterior_cloud(noniso, 24, seed=5)
    out = ray_integrals(noniso, u, eta)
    perm = philox(6, 0).permutation(24)
    moved = ray_integrals(noniso, u[perm], eta[perm])
    for key, val in out.items():
        np.testing.assert_array_equal(moved[key], val[perm])


def _lemma6_cloud(name):
    """Group, lemma6 chart cloud and quadrature of configs/<name>.json."""
    with open(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json") as fh:
        cfg = config_from_dict(json.load(fh))
    u, eta, _, _ = sample_exterior_cloud(cfg.group, cfg.sizes["lemma6_points"], cfg.seed)
    return cfg.group, u, eta, cfg.quadrature


@pytest.mark.parametrize("name", ["h1", "noniso", "three"])
def test_ray_node_angles_give_the_solved_rungs(name, monkeypatch):
    # a ray node's chart angle v eta is its Carnot-Caratheodory angle: on
    # every lemma6 ray node it floors onto the rung the angle solve gives,
    # so the kernel values with and without it are the same bits
    params, u, eta, spec = _lemma6_cloud(name)
    calls = []

    def recording_kernel_zsq(params, h, zsq, t, spec=None, **kwargs):
        out = kernel_zsq(params, h, zsq, t, spec, **kwargs)
        calls.append((zsq, t, kwargs["theta"], *out))
        return out

    monkeypatch.setattr(polar_module, "kernel_zsq", recording_kernel_zsq)
    ray_integrals(params, u, eta, spec)
    assert len(calls) == 1
    zsq, t, theta, vals, errs = calls[0]
    assert t.size > 100 * eta.size
    np.testing.assert_array_equal(
        ker._sigma_rungs(params, zsq, t, theta), ker._sigma_rungs(params, zsq, t)
    )
    solved = kernel_zsq(params, 1.0, zsq, t, spec)
    np.testing.assert_array_equal(solved[0], vals)
    np.testing.assert_array_equal(solved[1], errs)


def test_ray_integrals_memory_peak():
    # one kernel call over the 1,000-ray noniso cloud's ~103k nodes: the
    # node arrays are filled block by block and the kernel holds no
    # full-length reduced coordinates, keys or sigma array
    params, u, eta, spec = _lemma6_cloud("noniso")
    tracemalloc.start()
    try:
        ray_integrals(params, u, eta, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * 2**20


@pytest.mark.parametrize("count", [1, polar_module._RAY_BLOCK + 1])
def test_suite_lemma6_any_cloud_size(noniso, count):
    cfg = RunConfig(group=noniso, seed=20250809, sizes={"lemma6_points": count})
    rep = suite_lemma6(cfg)
    u, eta, labels, _ = sample_exterior_cloud(noniso, count, cfg.seed)
    ratios = ray_integrals(noniso, u, eta, cfg.quadrature)["ratio"]
    assert rep.stats["sup_ratio"] == float(ratios.max())
    assert rep.stats["min_ratio"] == float(ratios.min()) > 0
    for k in (1, 2, 3):
        in_region = ratios[labels == k]
        want = float(in_region.max()) if in_region.size else 0.0
        assert rep.stats["per_region_sup"][f"R{k}"] == want
    assert rep.stats["integral_rel_error_max"] <= 1e-4


def test_ray_integral_even_in_eta(h1):
    r1 = ray_integral_check(h1, np.array([2.0, 1.0]), 0.9)
    r2 = ray_integral_check(h1, np.array([2.0, 1.0]), -0.9)
    assert r1["ratio"] == pytest.approx(r2["ratio"], rel=1e-9)


def test_path_velocity_speed(any_group, rng):
    params = any_group
    u, eta = _random_polar(params, rng)
    s = np.linspace(0.05, 1.0, 7)
    vel = path_velocity(params, u, eta, s)
    sp = np.sqrt(np.sum(vel**2, axis=-1))
    want = _speed(params, u) * abs(eta)
    assert np.max(np.abs(sp - want)) <= 1e-8 * want


def test_horizontal_rays_report(any_group):
    u, eta = _random_polar_cloud(any_group, 300, 11)
    rep = check_horizontal_rays(any_group, u, eta)
    assert rep.passed, rep.notes
    assert rep.config["rays"] == 300
    assert rep.stats["t_rate_rel_error_max"] <= 1e-12
    assert rep.stats["speed_rel_error_max"] <= 1e-12


@pytest.mark.parametrize(
    "params",
    [
        GroupParams(1, (1,), (1.0,)),
        GroupParams(1, (2,), (1.0,)),
        GroupParams(2, (1, 2), (0.5, 1.0)),
        GroupParams(3, (2, 1, 1), (0.3, 0.6, 1.0)),
    ],
    ids=["h1", "h1k2", "noniso", "three"],
)
def test_horizontal_rays_at_small_eta(params):
    # read from 1 - cos 2 a_j eta, the t-rate would lose eps/(a_j eta)^2: 8.3e-8 on h1
    u, eta = _random_polar_cloud(params, 200, 13)
    rep = check_horizontal_rays(params, u, 1e-5 * np.sign(eta))
    assert rep.passed, rep.notes
    assert rep.stats["t_rate_rel_error_max"] <= 1e-10


def test_horizontal_rays_catch_a_frame_coefficient_fault(any_group, monkeypatch):
    # t-coefficients 2a -> 2a (1 + 1e-6): the gradient's t-entry scaled
    # by 1 + 1e-6 before the frame reads it is the same fault
    frame = polar_module.horizontal_components

    def skewed(params, grad, coords, which="left"):
        grad = np.array(grad, dtype=float)
        grad[..., -1] *= 1.0 + 1e-6
        return frame(params, grad, coords, which)

    monkeypatch.setattr(polar_module, "horizontal_components", skewed)
    u, eta = _random_polar_cloud(any_group, 300, 11)
    rep = check_horizontal_rays(any_group, u, eta)
    assert rep.passed is False
    assert rep.stats["t_rate_rel_error_max"] == pytest.approx(1e-6, rel=1e-6)
    assert rep.notes == ["FAILED: ray velocity leaves the horizontal frame"]


def test_cauchy_schwarz_tightness(noniso, rng):
    # align the gradient with the velocity at one parameter value: the
    # bound |d/ds f| <= U|eta| |grad f| becomes an equality
    u, eta = _random_polar(noniso, rng)
    s0 = 0.6
    vel = path_velocity(noniso, u, eta, np.asarray(s0))
    at = psi_flat(noniso, u, np.asarray(s0 * eta))
    direction = np.zeros(noniso.dim)
    direction[: 2 * noniso.n] = vel  # t-component zero: X/Y pick it up exactly
    f = linear_bump(at, 5.0, direction, bump="plateau")
    from nilheat.groups import horizontal_components

    hg = horizontal_components(noniso, f.gradient(at), at, "left")
    dds = float(np.sum(vel * hg))
    bound = _speed(noniso, u) * abs(eta) * float(np.sqrt(np.sum(hg**2)))
    assert dds == pytest.approx(bound, rel=1e-8)


def test_change_of_variables(any_group):
    rep = check_change_of_variables(any_group)
    assert rep.passed
    assert rep.stats["rel_difference"] <= 1e-10
    assert rep.stats["row_rel_difference_max"] <= 1e-10


@pytest.mark.parametrize(
    "params", [GroupParams(1, (1,), (1.0,)), GroupParams(2, (1, 1), (0.5, 1.0))], ids=["h1", "k11"]
)
def test_change_of_variables_direct_total_closed_form(params):
    # with every k_j = 1 the Haar side is prod_j pi * (half-width_j * 32/35)
    # times ts * 32/35 for the (1 - x^2)^3 profiles: 0.5 on the lower blocks,
    # 0.9 on the top block, 0.7 in t
    closed = math.pi**params.l * 0.5 ** (params.l - 1) * 0.9 * 0.7 * (32.0 / 35.0) ** (params.l + 1)
    rep = check_change_of_variables(params)
    assert rep.stats["direct"] == pytest.approx(closed, rel=1e-13, abs=0)


@pytest.mark.parametrize("group", ["h1", "noniso"])
def test_change_of_variables_sees_a_small_jacobian_error(group, request, monkeypatch):
    params = request.getfixturevalue(group)
    # the check reads J from the chart jet that also gives (|z_j|^2, t)
    exact = polar_module._chart_jet

    def biased(p, usq, eta):
        zsq, t, jac = exact(p, usq, eta)
        return zsq, t, jac * (1.0 + 1e-6 * np.asarray(eta))

    monkeypatch.setattr(polar_module, "_chart_jet", biased)
    rep = check_change_of_variables(params)
    assert not rep.passed
    assert rep.stats["rel_difference"] > 1e-7


def test_change_of_variables_on_three_blocks():
    # the check's cost grows like 8^l rows, not like an (l+1)-dim tensor
    params = GroupParams(3, (2, 1, 1), (0.3, 0.6, 1.0))
    start = time.perf_counter()
    rep = check_change_of_variables(params)
    assert time.perf_counter() - start < 1.0
    assert rep.passed
    assert rep.stats["row_rel_difference_max"] <= 1e-10
