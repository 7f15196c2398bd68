"""Group algebra: multiplication, dilation, frame fields, test functions."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nilheat.groups import (
    GroupParams,
    block_norms_sq_flat,
    dilate_flat,
    horizontal_components,
    inverse_flat,
    multiply_flat,
    sub_laplacian,
)
from nilheat.sampling import philox
from nilheat.semigroup import _hgrad_power
from nilheat.testfuncs import TestFunction, linear_bump, standard_family


@pytest.fixture(scope="module", params=["h1", "h1k2", "noniso", "l3"])
def frame_group(request):
    """The groups of `any_group` and a three-block group, for the frame
    checks that must see l = 3."""
    return {
        "h1": GroupParams(1, (1,), (1.0,)),
        "h1k2": GroupParams(1, (2,), (1.0,)),
        "noniso": GroupParams(2, (1, 2), (0.5, 1.0)),
        "l3": GroupParams(3, (2, 1, 1), (0.3, 0.6, 1.0)),
    }[request.param]


def oracle_multiply(a_coeffs, z1, z2, t1, t2):
    """Independent group-law evaluation with plain complex arithmetic.

    The inner product conjugates its second slot; the twist is
    2 sum_i a_i Im <z1_i, z2_i>.
    """
    twist = 0.0
    for ai, b1, b2 in zip(a_coeffs, z1, z2):
        inner = sum(w1 * complex(w2).conjugate() for w1, w2 in zip(b1, b2))
        twist += 2.0 * ai * inner.imag
    return [
        [w1 + w2 for w1, w2 in zip(b1, b2)] for b1, b2 in zip(z1, z2)
    ], t1 + t2 + twist


def _complex_blocks(params, coords):
    """The complex block vectors z_i of a flat point, for the oracle."""
    z = coords[0 : 2 * params.n : 2] + 1j * coords[1 : 2 * params.n : 2]
    return [z[sl] for sl in params.block_slices()]


def test_multiply_against_complex_oracle():
    # the specific two-block case: the twist evaluates to exactly 1
    params = GroupParams(2, (1, 1), (0.5, 1.0))
    g = np.array([1.0, 0.0, 0.0, 1.0, 0.0])  # z = (1, i), t = 0
    g2 = np.array([0.0, 1.0, 1.0, 0.0, 0.0])  # z = (i, 1), t = 0
    blocks = [_complex_blocks(params, p) for p in (g, g2)]
    _, t_expected = oracle_multiply(params.a, *blocks, 0.0, 0.0)
    assert t_expected == 1.0
    assert multiply_flat(params, g, g2)[-1] == t_expected
    # random cases against the same oracle
    rng = philox(11, 0)
    for _ in range(50):
        A, B = rng.standard_normal((2, params.dim))
        zs, ts = oracle_multiply(
            params.a, _complex_blocks(params, A), _complex_blocks(params, B), A[-1], B[-1]
        )
        got = multiply_flat(params, A, B)
        assert abs(got[-1] - ts) <= 1e-14 * (1 + abs(ts))
        for b_got, b_want in zip(_complex_blocks(params, got), zs):
            assert_allclose(b_got, np.asarray(b_want), rtol=0, atol=1e-14)


def test_multiply_one_point_against_rows_is_each_rows_product(any_group):
    # one point against a stack of rows: each row of the result is that
    # row's own product, bit for bit
    params = any_group
    rows = philox(12, 0).standard_normal((3, 5, params.dim))
    g = philox(12, 1).standard_normal(params.dim)
    left, right = multiply_flat(params, g, rows), multiply_flat(params, rows, g)
    assert left.shape == right.shape == rows.shape
    for idx in np.ndindex(3, 5):
        np.testing.assert_array_equal(left[idx], multiply_flat(params, g, rows[idx]))
        np.testing.assert_array_equal(right[idx], multiply_flat(params, rows[idx], g))


@pytest.mark.parametrize(
    "params",
    [GroupParams(1, (1,), (1.0,)), GroupParams(2, (1, 2), (0.5, 1.0)), GroupParams(3, (2, 1, 1), (0.3, 0.6, 1.0))],
    ids=["h1", "noniso", "three"],
)
def test_multiply_twist_matches_the_row_sum(params):
    # the twist adds its pair terms column by column; np.sum over each row
    # adds the same terms in the same order, so the products agree bit for bit
    def row_sum_product(A, B):
        n = params.n
        xa, ya, xb, yb = A[..., 0 : 2 * n : 2], A[..., 1 : 2 * n : 2], B[..., 0 : 2 * n : 2], B[..., 1 : 2 * n : 2]
        out = A + B
        out[..., 2 * n] += 2.0 * np.sum(params.pair_a * (ya * xb - xa * yb), axis=-1)
        return out

    rows = philox(13, 0).standard_normal((20000, params.dim)) * 3.0
    other = philox(13, 1).standard_normal((20000, params.dim))
    g = philox(13, 2).standard_normal(params.dim)
    for A, B in [(g, rows), (rows, g), (rows, other), (np.zeros(params.dim), -rows)]:
        for layout in (np.ascontiguousarray, np.asfortranarray):
            got = multiply_flat(params, layout(A), layout(B))
            assert got.flags.f_contiguous == (layout is np.asfortranarray)
            assert np.array_equal(got, row_sum_product(A, B))
            assert np.array_equal(np.signbit(got), np.signbit(row_sum_product(A, B)))


def test_identity_and_inverse(any_group, rng):
    params = any_group
    o = np.zeros(params.dim)
    g = rng.standard_normal(params.dim)
    assert_allclose(multiply_flat(params, g, o), g, atol=0)
    assert_allclose(multiply_flat(params, o, g), g, atol=0)
    assert_allclose(multiply_flat(params, g, inverse_flat(g)), o, atol=1e-14)
    assert_allclose(inverse_flat(inverse_flat(g)), g, atol=0)


def test_group_axioms_bulk(any_group):
    params = any_group
    rng = philox(5, 1)
    n = 10000
    A = rng.uniform(-2, 2, size=(n, params.dim))
    B = rng.uniform(-2, 2, size=(n, params.dim))
    C = rng.uniform(-2, 2, size=(n, params.dim))
    left = multiply_flat(params, multiply_flat(params, A, B), C)
    right = multiply_flat(params, A, multiply_flat(params, B, C))
    assert np.max(np.abs(left - right)) <= 1e-12
    assert np.max(np.abs(multiply_flat(params, A, -A))) <= 1e-12


def test_dilation(any_group, rng):
    params = any_group
    g = rng.standard_normal(params.dim)
    assert_allclose(dilate_flat(params, 1.0, g), g, atol=0)
    d2 = dilate_flat(params, 2.0, g)
    assert_allclose(d2[:-1], 2.0 * g[:-1], atol=0)
    assert d2[-1] == 4.0 * g[-1]
    # composition and automorphism
    r1, r2 = 0.7, 2.3
    assert_allclose(
        dilate_flat(params, r1, dilate_flat(params, r2, g)),
        dilate_flat(params, r1 * r2, g),
        rtol=1e-14,
        atol=1e-14,
    )
    g2 = rng.standard_normal(params.dim)
    lhs = dilate_flat(params, r1, multiply_flat(params, g, g2))
    rhs = multiply_flat(params, dilate_flat(params, r1, g), dilate_flat(params, r1, g2))
    assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError):
        dilate_flat(params, 0.0, g)
    with pytest.raises(ValueError):
        dilate_flat(params, -1.0, g)
    # an array of factors dilates each point by its own, with the bits of
    # the single-factor call; every factor must be positive
    pts = rng.standard_normal((4, 3, params.dim))
    rs = rng.uniform(0.3, 3.0, (4, 3))
    batch = dilate_flat(params, rs, pts)
    for i, j in np.ndindex(4, 3):
        assert np.array_equal(batch[i, j], dilate_flat(params, float(rs[i, j]), pts[i, j]))
    for bad in ([1.0, 0.0, 2.0], [1.0, np.nan, 2.0]):
        with pytest.raises(ValueError):
            dilate_flat(params, np.array(bad), pts[0])


def _field_flow(params, column, g_flat, eps):
    """Exact integral curve of the left frame field `column` (the order of
    `horizontal_components`): right translation by the exponential of the
    field, which moves one coordinate and shears t."""
    step = np.zeros(params.dim)
    step[column] = eps
    return multiply_flat(params, g_flat, step)


def _frame_of(params, f, coords, which="left"):
    return horizontal_components(params, f.gradient(coords), coords, which)


def test_left_field_matches_flow_fd(frame_group):
    params = frame_group
    fam = standard_family(params, count=6, seed=4)
    rng = philox(6, 2)
    eps = 1e-5
    for f in fam[:3]:
        g_flat = f.center + rng.uniform(-0.3, 0.3, params.dim) * f.scale
        comps = _frame_of(params, f, g_flat)
        for column in range(2 * params.n):
            up = f.value(_field_flow(params, column, g_flat, eps))
            dn = f.value(_field_flow(params, column, g_flat, -eps))
            fd = (up - dn) / (2 * eps)
            assert abs(comps[column] - fd) <= 1e-6 * (1 + abs(fd))


def test_right_field_matches_flow_fd(frame_group):
    params = frame_group
    f = standard_family(params, count=3, seed=9)[2]
    rng = philox(7, 3)
    eps = 1e-5
    g_flat = f.center + rng.uniform(-0.3, 0.3, params.dim) * f.scale
    comps = _frame_of(params, f, g_flat, "right")
    for column in range(2 * params.n):
        # right-frame flow is left translation
        step = np.zeros(params.dim)
        step[column] = eps
        up = f.value(multiply_flat(params, step, g_flat))
        dn = f.value(multiply_flat(params, -step, g_flat))
        fd = (up - dn) / (2 * eps)
        assert abs(comps[column] - fd) <= 1e-6 * (1 + abs(fd))


def test_fields_agree_at_origin(any_group):
    params = any_group
    f = standard_family(params, count=2, seed=13)[0]
    g = np.zeros(params.dim)
    assert np.array_equal(_frame_of(params, f, g), _frame_of(params, f, g, "right"))


def test_field_on_t_coordinate(any_group, rng):
    # f = t - c_t on a plateau: the left X field gives 2 a_i y, the right
    # one -2 a_i y, and the Y fields -2 a_i x and 2 a_i x, exactly
    params = any_group
    direction = np.zeros(params.dim)
    direction[-1] = 1.0
    f = linear_bump(np.zeros(params.dim), 10.0, direction, bump="plateau")
    g_flat = rng.uniform(-0.5, 0.5, params.dim)
    left, right = _frame_of(params, f, g_flat), _frame_of(params, f, g_flat, "right")
    for pair, ai in enumerate(params.pair_a):
        want_x = 2.0 * ai * g_flat[2 * pair + 1]
        want_y = -2.0 * ai * g_flat[2 * pair]
        assert abs(left[2 * pair] - want_x) <= 1e-12 and abs(right[2 * pair] + want_x) <= 1e-12
        assert abs(left[2 * pair + 1] - want_y) <= 1e-12 and abs(right[2 * pair + 1] + want_y) <= 1e-12
    # a batch of points gives the per-point values
    pts = rng.uniform(-0.5, 0.5, (4, 3, params.dim))
    batch = _frame_of(params, f, pts)
    assert batch.shape == (4, 3, 2 * params.n)
    assert np.array_equal(batch[2, 1], _frame_of(params, f, pts[2, 1]))


def test_left_invariance(any_group):
    # (X f)(g0 g) = X (f o L_{g0})(g), probed by finite differences
    params = any_group
    f = standard_family(params, count=4, seed=21)[3]
    rng = philox(8, 4)
    eps = 1e-5
    for _ in range(20):
        g0 = rng.uniform(-0.8, 0.8, params.dim)
        base = f.center + rng.uniform(-0.4, 0.4, params.dim) * f.scale
        g = multiply_flat(params, -g0, base)  # so that g0 . g lands near the support
        comps = _frame_of(params, f, multiply_flat(params, g0, g))
        for column in (0, 2 * params.n - 1):
            up = f.value(multiply_flat(params, g0, _field_flow(params, column, g, eps)))
            dn = f.value(multiply_flat(params, g0, _field_flow(params, column, g, -eps)))
            fd = (up - dn) / (2 * eps)
            assert abs(comps[column] - fd) <= 1e-5 * (1 + abs(fd))


def test_right_invariance(any_group):
    params = any_group
    f = standard_family(params, count=4, seed=22)[3]
    rng = philox(9, 5)
    eps = 1e-5
    for _ in range(20):
        g0 = rng.uniform(-0.8, 0.8, params.dim)
        base = f.center + rng.uniform(-0.4, 0.4, params.dim) * f.scale
        g = multiply_flat(params, base, -g0)
        comps = _frame_of(params, f, multiply_flat(params, g, g0), "right")
        for column in (1, 2 * params.n - 2):
            step = np.zeros(params.dim)
            step[column] = eps
            up = f.value(multiply_flat(params, multiply_flat(params, step, g), g0))
            dn = f.value(multiply_flat(params, multiply_flat(params, -step, g), g0))
            fd = (up - dn) / (2 * eps)
            assert abs(comps[column] - fd) <= 1e-5 * (1 + abs(fd))


def test_measure_invariance_mc(any_group):
    # int f(g0 . g) dm(g) = int f dm within Monte Carlo error
    params = any_group
    f = standard_family(params, count=3, seed=31)[2]
    rng = philox(10, 6)
    g0 = rng.uniform(-0.5, 0.5, params.dim)
    # a box that covers the support both before and after translation
    lo, hi = f.support_box()
    pad = np.abs(g0).sum() + 2.0 + float(np.abs(lo).max() + np.abs(hi).max())
    n = 200000
    pts = rng.uniform(-pad, pad, size=(n, params.dim))
    vol = (2 * pad) ** params.dim
    v1 = f.value(pts)
    v2 = f.value(multiply_flat(params, g0, pts))
    m1, m2 = vol * v1.mean(), vol * v2.mean()
    se = vol * math.sqrt(v1.var() / n + v2.var() / n)
    assert abs(m1 - m2) <= 3.0 * se


def test_horizontal_gradient_norm(any_group, rng):
    params = any_group
    norm = lambda f, g: _hgrad_power(params, f.gradient(g), g)
    g = rng.uniform(-0.5, 0.5, params.dim)
    # inside the bump the polynomial is constant but the bump is not; use
    # the plateau so the gradient genuinely vanishes
    plateau = TestFunction(
        np.zeros(params.dim),
        5.0,
        np.zeros((1, params.dim), dtype=int),
        np.ones(1),
        bump="plateau",
    )
    assert norm(plateau, g) == 0.0
    # single-coordinate linear function: norm 1
    direction = np.zeros(params.dim)
    direction[0] = 1.0
    f = linear_bump(np.zeros(params.dim), 10.0, direction, bump="plateau")
    assert abs(norm(f, g) - 1.0) <= 1e-12
    # recomputation oracle on a generic member: the frame fields one by one
    fam = standard_family(params, count=3, seed=8)[1]
    gg = fam.center + 0.2 * fam.scale * np.ones(params.dim)
    grad = fam.gradient(gg)
    comps = []
    for pair, ai in enumerate(params.pair_a):
        comps.append(grad[2 * pair] + 2.0 * ai * gg[2 * pair + 1] * grad[-1])
        comps.append(grad[2 * pair + 1] - 2.0 * ai * gg[2 * pair] * grad[-1])
    want = math.sqrt(sum(c * c for c in comps))
    assert abs(norm(fam, gg) - want) <= 1e-12 * (1 + want)
    assert_allclose(horizontal_components(params, grad, gg), comps, rtol=0, atol=0)


def test_horizontal_components_rejects_unknown_frame(any_group, rng):
    params = any_group
    f = standard_family(params, count=3, seed=8)[1]
    g = f.center + 0.2 * f.scale * np.ones(params.dim)
    grad = f.gradient(g)
    left = horizontal_components(params, grad, g, "left")
    right = horizontal_components(params, grad, g, "right")
    assert not np.array_equal(left, right)
    for bad in ("sideways", "Left", "", None):
        with pytest.raises(ValueError):
            horizontal_components(params, grad, g, bad)


def test_sub_laplacian_on_zsq(any_group):
    # f = |z|^2 near the origin gives exactly 4 n
    params = any_group
    exps = []
    for p in range(params.n):
        ex = [0] * params.dim
        ex[2 * p] = 2
        exps.append(tuple(ex))
        ey = [0] * params.dim
        ey[2 * p + 1] = 2
        exps.append(tuple(ey))
    scale = 6.0
    f = TestFunction(
        np.zeros(params.dim),
        scale,
        np.array(exps, dtype=int),
        np.full(2 * params.n, scale**2),
        bump="plateau",
    )
    g = 0.08 * np.ones(params.dim)
    val = sub_laplacian(params, f, g)
    assert abs(val - 4.0 * params.n) <= 1e-10
    # a batch of points inside the plateau: 4 n at every one
    pts = g + np.linspace(-0.05, 0.05, 6)[:, None]
    assert_allclose(sub_laplacian(params, f, pts), 4.0 * params.n, rtol=0, atol=1e-10)
    # constants map to zero
    const = TestFunction(
        np.zeros(params.dim),
        5.0,
        np.zeros((1, params.dim), dtype=int),
        np.ones(1),
        bump="plateau",
    )
    assert sub_laplacian(params, const, g) == 0.0


def _sub_laplacian_expanded(params, f, coords):
    """Per pair f_xx + f_yy + 4a (y f_xt - x f_yt) + 4a^2 (x^2 + y^2) f_tt."""
    H = f.hessian(coords)
    a, ix = params.pair_a, np.arange(0, 2 * params.n, 2)
    iy, it = ix + 1, 2 * params.n
    x, y = coords[..., ix], coords[..., iy]
    total = np.sum(H[..., ix, ix] + H[..., iy, iy], axis=-1)
    total += np.sum(4.0 * a * (y * H[..., ix, it] - x * H[..., iy, it]), axis=-1)
    return total + np.sum(4.0 * a**2 * (x**2 + y**2), axis=-1) * H[..., it, it]


def test_sub_laplacian_matches_flow_fd(frame_group):
    params = frame_group
    f = standard_family(params, count=5, seed=19)[4]
    rng = philox(12, 7)
    g_flat = f.center + rng.uniform(-0.2, 0.2, params.dim) * f.scale
    eps = 1e-3
    total = 0.0
    for column in range(2 * params.n):
        up = f.value(_field_flow(params, column, g_flat, eps))
        mid = f.value(g_flat)
        dn = f.value(_field_flow(params, column, g_flat, -eps))
        total += (up - 2 * mid + dn) / eps**2
    got = sub_laplacian(params, f, g_flat)
    assert abs(got - total) <= 1e-4 * (1 + abs(total))
    # the batch body gives each point's value, and the chain-rule expansion
    # to rounding
    pts = np.stack([g_flat, f.center, g_flat + 0.1 * f.scale])
    batch = sub_laplacian(params, f, pts)
    assert batch[0] == got
    want = _sub_laplacian_expanded(params, f, pts)
    assert_allclose(batch, want, rtol=1e-13, atol=1e-13 * float(np.max(np.abs(want))))


def test_testfunction_derivatives(any_group):
    params = any_group
    rng = philox(13, 8)
    for f in standard_family(params, count=6, seed=3)[:4]:
        pts = f.center + rng.uniform(-0.5, 0.5, size=(12, params.dim)) * f.scale
        grad = f.gradient(pts)
        eps = 1e-6 * f.scale
        for d in range(params.dim):
            e = np.zeros(params.dim)
            e[d] = eps
            fd = (f.value(pts + e) - f.value(pts - e)) / (2 * eps)
            denom = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(grad[:, d] - fd) / denom) <= 1e-6
        hess = f.hessian(pts)
        assert_allclose(hess, np.swapaxes(hess, -1, -2), atol=0)
        # compact support: zero outside the reported box
        lo, hi = f.support_box()
        outside = hi + 0.5 * f.scale
        assert f.value(outside) == 0.0
        assert np.all(f.gradient(outside) == 0.0)
        assert np.all(f.hessian(outside) == 0.0)


def test_block_norms_flat_accepts_chart_and_point_layouts(any_group, rng):
    params = any_group
    pts = rng.uniform(-2, 2, (4, 3, params.dim))
    from_points = block_norms_sq_flat(params, pts)
    from_chart = block_norms_sq_flat(params, pts[..., :-1])
    assert from_points.shape == from_chart.shape == (4, 3, params.l)
    assert np.array_equal(from_points, from_chart)
    want = [float(np.sum(np.abs(b) ** 2)) for b in _complex_blocks(params, pts[1, 2])]
    assert_allclose(from_points[1, 2], want, rtol=1e-14, atol=0)


def test_every_export_resolves():
    import importlib
    import pkgutil

    import nilheat

    for info in pkgutil.iter_modules(nilheat.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"nilheat.{info.name}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"nilheat.{info.name}.__all__ names {missing}"


def test_block_norms_reject_points_of_another_group(noniso):
    # noniso points have 7 coordinates and chart arrays 6
    assert block_norms_sq_flat(noniso, np.ones(6)).shape == (2,)
    assert block_norms_sq_flat(noniso, np.ones((2, 7))).shape == (2, 2)
    for bad in (np.full(3, 0.3), np.ones((2, 5)), np.ones(8), np.float64(1.0)):
        with pytest.raises(ValueError, match="trailing axis"):
            block_norms_sq_flat(noniso, bad)


def test_multiply_rejects_points_of_another_group(h1):
    # a 7-coordinate product on h1 used to return an uninitialised tail
    with pytest.raises(ValueError, match="trailing axis"):
        multiply_flat(h1, np.ones(7), np.ones(7))
    for a, b in ((np.ones(3), np.ones(2)), (np.ones(2), np.ones(3)), (np.ones((4, 2)), np.ones((4, 2)))):
        with pytest.raises(ValueError, match="trailing axis"):
            multiply_flat(h1, a, b)


def test_horizontal_components_rejects_points_of_another_group(h1):
    # a short gradient used to raise IndexError
    for grad, coords in ((np.ones(2), np.ones(3)), (np.ones(3), np.ones(2)), (np.ones(7), np.ones(7))):
        with pytest.raises(ValueError, match="trailing axis"):
            horizontal_components(h1, grad, coords)


def test_params_validation():
    with pytest.raises(ValueError):
        GroupParams(1, (1,), (0.5,))  # a_l must be 1
    with pytest.raises(ValueError):
        GroupParams(2, (1, 1), (1.0, 1.0))  # strictly increasing
    with pytest.raises(ValueError):
        GroupParams(2, (1, 0), (0.5, 1.0))  # k_i >= 1
    with pytest.raises(ValueError):
        GroupParams(0, (), ())
    p = GroupParams(2, (2, 3), (0.25, 1.0))
    assert p.n == 5 and p.dim == 11
