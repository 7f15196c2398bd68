"""Test functions: the in-support jet against a dense evaluator, and input checks."""

import numpy as np
import pytest

from nilheat.groups import GroupParams
from nilheat.testfuncs import _POWER_BLOCK, TestFunction, indicator_like, linear_bump, standard_family

H1 = GroupParams(1, (1,), (1.0,))
NONISO = GroupParams(2, (1, 2), (0.5, 1.0))
THREE = GroupParams(3, (2, 1, 1), (0.3, 0.6, 1.0))


def _dense_poly(exps, coeffs, xi):
    out = np.zeros(xi.shape[:-1])
    for e, c in zip(exps, coeffs):
        term = np.full(xi.shape[:-1], c)
        for d, ed in enumerate(e):
            if ed:
                term = term * xi[..., d] ** ed
        out += term
    return out


def dense_jet(f, coords):
    """Every term on every row, masked with q < 1 at the end.

    Reuses the function's bump profile and derivative term lists; what it
    checks is the row selection and scatter of `TestFunction.jet`.
    """
    coords = np.asarray(coords, dtype=float)
    with np.errstate(all="ignore"):
        xi = (coords - f.center) / f.scale
        q = np.sum(xi**2, axis=-1)
        b, bq, bqq = f._bump_q(q)
        p = _dense_poly(f.exps, f.coeffs, xi)
        value = np.where(q < 1.0, p * b, 0.0)
        pd = [_dense_poly(*f._d1[d], xi) for d in range(f.dim)]
        grad = np.empty(xi.shape)
        for d in range(f.dim):
            grad[..., d] = (pd[d] * b + p * bq * 2.0 * xi[..., d]) / f.scale
        grad = np.where(q[..., None] < 1.0, grad, 0.0)
        hess = np.empty(xi.shape[:-1] + (f.dim, f.dim))
        for d1 in range(f.dim):
            for d2 in range(d1, f.dim):
                pdd = _dense_poly(*f._d2[d1][d2], xi)
                h = (
                    pdd * b
                    + pd[d1] * bq * 2.0 * xi[..., d2]
                    + pd[d2] * bq * 2.0 * xi[..., d1]
                    + p * (bqq * 4.0 * xi[..., d1] * xi[..., d2])
                )
                if d1 == d2:
                    h = h + p * bq * 2.0
                hess[..., d1, d2] = h / f.scale**2
                hess[..., d2, d1] = hess[..., d1, d2]
        hess = np.where(q[..., None, None] < 1.0, hess, 0.0)
    return [value, grad, hess]


def _cloud(f, count, seed):
    """Points around f's support (about half inside) plus far and non-finite rows."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    near = f.center + f.scale * rng.uniform(-1.2, 1.2, size=(count, f.dim))
    far = f.center + 3.0 * f.scale * rng.choice([-1.0, 1.0], size=(4, f.dim))
    odd = np.repeat(f.center[None, :], 3, axis=0)
    odd[0, -1] = np.nan
    odd[1, -1] = np.inf
    odd[2, 0] = -np.inf
    return np.concatenate([near, far, odd])


def assert_jet_matches(f, coords):
    got = f.jet(coords, 2)
    want = dense_jet(f, coords)
    for part, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape, part
        assert np.array_equal(g, w), part


@pytest.mark.parametrize("params", [H1, NONISO], ids=["h1", "noniso"])
def test_standard_family_matches_dense(params):
    for i, f in enumerate(standard_family(params)):
        assert_jet_matches(f, _cloud(f, 400, seed=i))


@pytest.mark.parametrize("params", [H1, NONISO], ids=["h1", "noniso"])
def test_support_jet_scattered_equals_jet(params):
    # rows are the dense q < 1 rows in order; scattered, the parts are f.jet
    # and the dense evaluation, bit for bit
    family = standard_family(params)[:10] + [indicator_like(params.dim, 2.0)]
    for i, f in enumerate(family):
        cloud = _cloud(f, 400, seed=i)
        with np.errstate(invalid="ignore"):
            inside = np.flatnonzero(np.sum(((cloud - f.center) / f.scale) ** 2, axis=-1) < 1.0)
        for order in (0, 1, 2):
            rows, parts = f.support_jet(cloud, order)
            assert np.array_equal(rows, inside)
            want = f.jet(cloud, order)
            assert len(parts) == len(want) == order + 1
            for part, w, dense in zip(parts, want, dense_jet(f, cloud)):
                full = np.zeros(w.shape)
                full[rows] = part
                assert np.array_equal(full, w) and np.array_equal(full, dense)


@pytest.mark.parametrize("params", [H1, NONISO, THREE], ids=["h1", "noniso", "three"])
def test_column_major_coordinates_give_the_same_jet(params):
    # the support test and the jet read one coordinate column at a time; a
    # column-major copy of the rows gives the same rows and parts bit for bit
    for i, f in enumerate(standard_family(params)):
        cloud = _cloud(f, 400, seed=i)
        column_major = np.asfortranarray(cloud)
        for order in (0, 1, 2):
            rows, parts = f.support_jet(cloud, order)
            rows_f, parts_f = f.support_jet(column_major, order)
            assert np.array_equal(rows, rows_f)
            for part, part_f in zip(parts + f.jet(cloud, order), parts_f + f.jet(column_major, order)):
                assert np.array_equal(part, part_f)


def test_power_blocks_join_bit_for_bit():
    # a scale-4 member keeps more rows than one power-table block; the jet
    # across the block boundary is the dense evaluation bit for bit
    f = standard_family(H1)[4]
    assert f.scale == 4.0 and f.exps.max() >= 2
    cloud = np.asfortranarray(_cloud(f, 4 * _POWER_BLOCK, seed=4))
    rows, _ = f.support_jet(cloud)
    assert rows.size > _POWER_BLOCK
    assert_jet_matches(f, cloud)


def test_plateau_bump_matches_dense():
    for dim in (3, 7):
        f = indicator_like(dim, 2.0)
        assert_jet_matches(f, _cloud(f, 600, seed=dim))
    f = linear_bump(np.array([0.5, -0.25, 1.0]), 1.5, np.array([1.0, 2.0, -1.0]), bump="plateau")
    assert_jet_matches(f, _cloud(f, 600, seed=11))


def test_rows_on_the_support_edge():
    f = TestFunction(np.zeros(3), 2.0, np.array([[0, 0, 0], [1, 0, 2]]), np.array([1.0, 0.5]))
    edge = np.array(
        [
            [2.0, 0.0, 0.0],
            [-2.0, 0.0, 0.0],
            [0.0, 2.0, 0.0],
            [0.0, 0.0, -2.0],
            [1.2, 1.6, 0.0],
            [np.nextafter(2.0, 0.0), 0.0, 0.0],
            [np.nextafter(-2.0, 0.0), 0.0, 0.0],
        ]
    )
    xi = edge / 2.0
    assert np.sum(xi[:4] ** 2, axis=-1).tolist() == [1.0] * 4
    assert_jet_matches(f, edge)
    value = f.value(edge)
    assert np.all(value[:4] == 0.0)
    assert np.all(value[5:] > 0.0)


def test_shapes_and_degenerate_inputs():
    f = standard_family(H1)[3]
    cloud = _cloud(f, 30, seed=5)
    assert_jet_matches(f, cloud[0])
    assert f.value(cloud[0]).shape == ()
    assert f.gradient(cloud[0]).shape == (3,)
    assert f.hessian(cloud[0]).shape == (3, 3)
    assert_jet_matches(f, np.empty((0, 3)))
    assert f.value(np.empty((0, 3))).shape == (0,)
    assert_jet_matches(f, cloud[:6].reshape(2, 3, 3))
    assert f.gradient(cloud[:6].reshape(2, 3, 3)).shape == (2, 3, 3)
    outside = f.center + 5.0 * f.scale * np.ones((50, 3))
    assert_jet_matches(f, outside)
    assert not np.any(f.hessian(outside))
    near = cloud[:30] - f.center
    inside = f.center + 0.5 * f.scale * near / np.abs(near).max()
    assert np.all(f.value(inside) != 0.0)
    assert_jet_matches(f, inside)
    assert_jet_matches(f, inside[0])


def test_jet_orders_equal_the_wrappers():
    f = standard_family(NONISO)[4]
    c = _cloud(f, 200, seed=9)
    value, grad, hess = f.jet(c, 2)
    assert np.array_equal(value, f.value(c))
    assert np.array_equal(grad, f.gradient(c))
    assert np.array_equal(hess, f.hessian(c))
    (v0,) = f.jet(c)
    v1, g1 = f.jet(c, 1)
    assert np.array_equal(v0, value) and np.array_equal(v1, value)
    assert np.array_equal(g1, grad)


def test_jet_rejects_bad_order_and_shape():
    f = standard_family(H1)[0]
    with pytest.raises(ValueError, match="order"):
        f.jet(np.zeros((2, 3)), 3)
    with pytest.raises(ValueError, match="trailing axis"):
        f.value(np.zeros((2, 7)))


def _args(**over):
    args = dict(center=np.zeros(3), scale=1.0, exps=np.array([[0, 0, 0], [1, 0, 0]]), coeffs=np.ones(2))
    args.update(over)
    return args


@pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -1.0])
def test_rejects_bad_scale(scale):
    with pytest.raises(ValueError, match="scale"):
        TestFunction(**_args(scale=scale))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_center(bad):
    with pytest.raises(ValueError, match="center"):
        TestFunction(**_args(center=np.array([0.0, bad, 0.0])))


def test_rejects_negative_exponent():
    with pytest.raises(ValueError, match="non-negative"):
        TestFunction(**_args(exps=np.array([[-1, 0, 0]]), coeffs=np.ones(1)))


@pytest.mark.parametrize("count", [1, 3])
def test_rejects_coefficient_count_mismatch(count):
    with pytest.raises(ValueError, match="coefficient"):
        TestFunction(**_args(coeffs=np.ones(count)))
