"""Compactly supported test functions with closed-form derivatives.

The built-in family multiplies a polynomial of total degree <= 4 in the
centered, scaled coordinates by a C^2 bump.  Two bump profiles are
available:

  poly     B(q) = (1 - q)^3 on q = s^2 < 1, zero outside.
  plateau  identically 1 for s <= 1/2, quintic smoothstep down to 0 at
           s = 1 (used where a function must be exactly 1 on a region,
           e.g. mass-conservation checks).

Both profiles have two continuous derivatives across the support edge, so
value, gradient, and Hessian all vanish outside the reported bounding box.

One evaluator, `TestFunction.support_jet(coords, order)`, gives the rows
inside the support (q = |xi|^2 < 1, built one axis at a time on the rows
still below 1) and the value, gradient and Hessian on those rows only; the
Monte Carlo checks reduce over them.  The support test reads one column
coords.T[d] at a time (contiguous in the column-major diffusion sample),
and the jet computes each power xi[d] ** e once per block of kept rows.
`jet` scatters the rows into zeros; `value`, `gradient` and `hessian` wrap
it.  Each kept entry sees the same elementwise operations as a dense
evaluation, so the results are bit-identical to one (q adds the axes in
order, as `np.sum` does below 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TestFunction", "standard_family", "linear_bump", "indicator_like"]

# rows per block of the jet's power table (128 KB per power); unbounded, the
# table raised the h1 Cheeger peak RSS by 7.8 MB
_POWER_BLOCK = 16384


def _poly_derivative(exps, coeffs, d):
    """Term-list derivative of sum_k coeffs[k] * prod xi^exps[k] wrt xi_d."""
    keep = exps[:, d] > 0
    if not np.any(keep):
        return np.zeros((0, exps.shape[1]), dtype=int), np.zeros(0)
    new_exps = exps[keep].copy()
    new_coeffs = coeffs[keep] * new_exps[:, d]
    new_exps[:, d] -= 1
    return new_exps, new_coeffs


def _poly_eval(exps, coeffs, xi, powers):
    """sum_k coeffs[k] prod_d xi[d]^exps[k, d] on rows xi (dim, m); powers
    caches xi[d] ** e by (d, e) across the polynomials of one block."""
    out = np.zeros(xi.shape[1:])
    for e, c in zip(exps, coeffs):
        term = c  # times each power in turn; a constant term stays the scalar c
        for d, ed in enumerate(e):
            if ed:
                pw = powers.get((d, ed))
                if pw is None:
                    pw = powers[d, ed] = xi[d] ** ed
                term = term * pw
        out += term
    return out


@dataclass
class TestFunction:
    """Polynomial-times-bump function on R^{2n+1}.

    center and scale fix the support ball {|coords - center| < scale}; the
    polynomial is evaluated in xi = (coords - center)/scale.
    """

    center: np.ndarray
    scale: float
    exps: np.ndarray
    coeffs: np.ndarray
    bump: str = "poly"

    __test__ = False  # not a pytest collectible despite the name

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.exps = np.asarray(self.exps, dtype=int)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        self.scale = float(self.scale)
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
        if self.center.ndim != 1 or not np.all(np.isfinite(self.center)):
            raise ValueError("center must be a finite coordinate vector")
        if self.bump not in ("poly", "plateau"):
            raise ValueError("unknown bump profile")
        dim = self.center.size
        if self.exps.ndim != 2 or self.exps.shape[1] != dim:
            raise ValueError("exponent table shape must be (terms, dim)")
        if np.any(self.exps < 0):
            raise ValueError("exponents must be non-negative")
        if self.coeffs.shape != (self.exps.shape[0],):
            raise ValueError(
                f"need one coefficient per exponent row: {self.coeffs.size} coefficients "
                f"for {self.exps.shape[0]} rows"
            )
        # Precompute derivative term lists once; evaluation reuses them.
        self._d1 = [_poly_derivative(self.exps, self.coeffs, d) for d in range(dim)]
        self._d2 = [
            [_poly_derivative(*self._d1[d1], d2) for d2 in range(dim)]
            for d1 in range(dim)
        ]

    @property
    def dim(self) -> int:
        return self.center.size

    def support_box(self):
        """(lo, hi) corners of a box containing the support."""
        return self.center - self.scale, self.center + self.scale

    def _bump_q(self, q, order=2):
        """Bump profile in q = s^2 and its q-derivatives up to `order`."""
        if self.bump == "poly":
            w = np.maximum(1.0 - q, 0.0)
            return [w**3, -3.0 * w**2, 6.0 * w][: order + 1]
        # plateau: 1 on s <= 1/2; smoothstep in w = (s - 1/2)/(1/2) beyond.
        s = np.sqrt(np.clip(q, 0.0, None))
        w = np.clip((s - 0.5) * 2.0, 0.0, 1.0)
        b = 1.0 - w**3 * (10.0 - 15.0 * w + 6.0 * w**2)
        dbdw = -30.0 * w**2 * (1.0 - w) ** 2
        d2bdw2 = -60.0 * w * (1.0 - 3.0 * w + 2.0 * w**2)
        # chain rule to q: dw/dq = 1/s, d2w/dq2 = -1/(2 s^3); w ramp only.
        active = (s > 0.5) & (s < 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dwdq = np.where(active, 1.0 / s, 0.0)
            d2wdq2 = np.where(active, -0.5 / s**3, 0.0)
        dq = dbdw * dwdq
        d2q = d2bdw2 * dwdq**2 + dbdw * d2wdq2
        return [b, dq, d2q][: order + 1]

    def support_jet(self, coords, order=0):
        """(rows, parts): the flat indices of the rows of coords inside the
        support, and [value], [value, gradient] or [value, gradient, hessian]
        on those rows, of shapes (k,), (k, dim) and (k, dim, dim).

        coords has shape (..., dim) and is read as (N, dim) rows; every row
        not in `rows` has value, gradient and Hessian exactly zero.
        """
        if order not in (0, 1, 2):
            raise ValueError("jet order must be 0, 1 or 2")
        coords = np.asarray(coords, dtype=float)
        dim = self.dim
        if coords.shape[-1:] != (dim,):
            raise ValueError(f"coordinates must have a trailing axis of length {dim}")
        rows, xi, bump = self._in_support(coords.reshape(-1, dim), order)
        return rows, self._rows_jet(xi, bump, order)

    def jet(self, coords, order=0) -> list:
        """[value], [value, gradient] or [value, gradient, hessian] at coords.

        coords has shape (..., dim); the parts have shapes (...), (..., dim)
        and (..., dim, dim).  The rows from `support_jet` are scattered into
        zeros.
        """
        coords = np.asarray(coords, dtype=float)
        rows, parts = self.support_jet(coords, order)
        count = int(np.prod(coords.shape[:-1]))
        out = []
        for part in parts:
            if rows.size < count:  # scatter; rows outside stay zero
                full = np.zeros((count,) + part.shape[1:])
                full[rows] = part
                part = full
            out.append(part.reshape(coords.shape[:-1] + part.shape[1:]))
        return out

    def _in_support(self, flat, order):
        """Rows of flat (N, dim) with q < 1, their xi (dim, k) and the bump
        jet there; each axis is one column flat.T[d], gathered by 1-D take."""
        # q = |xi|^2 one axis at a time, keeping the rows with q < 1 so far;
        # NaN and inf rows fail the test at their first non-finite axis
        cols = flat.T
        x = (cols[0] - self.center[0]) / self.scale
        q = x * x
        rows = np.flatnonzero(q < 1.0)
        q = q[rows]
        for d in range(1, self.dim):
            x = (cols[d].take(rows) - self.center[d]) / self.scale
            q = q + x * x
            keep = np.flatnonzero(q < 1.0)
            rows, q = rows[keep], q[keep]
        xi = (cols.take(rows, axis=1) - self.center[:, None]) / self.scale
        return rows, xi, self._bump_q(q, order)

    def _rows_jet(self, xi, bump, order):
        """Polynomial times bump and its derivatives on in-support rows xi
        (dim, k), written block by block into the parts."""
        dim, k = xi.shape
        # the gradient stays C-ordered, so sums over its rows keep their order
        parts = [np.empty((k,) + (dim,) * i) for i in range(order + 1)]
        for start in range(0, k, _POWER_BLOCK):
            blk = slice(start, start + _POWER_BLOCK)
            self._block_jet(xi[:, blk], [bq[blk] for bq in bump], [part[blk] for part in parts])
        return parts

    def _block_jet(self, xi, bump, parts):
        """Fill the parts on one block of rows; every polynomial reads one
        table of the powers xi[d] ** e."""
        dim, powers = self.dim, {}
        b = bump[0]
        p = _poly_eval(self.exps, self.coeffs, xi, powers)
        parts[0][:] = p * b
        if len(parts) == 1:
            return
        bq = bump[1]
        pd = [_poly_eval(*self._d1[d], xi, powers) for d in range(dim)]
        pbq2 = p * bq * 2.0
        for d in range(dim):
            parts[1][:, d] = (pd[d] * b + pbq2 * xi[d]) / self.scale
        if len(parts) == 3:
            bqq, hess = bump[2], parts[2]
            for d1 in range(dim):
                for d2 in range(d1, dim):
                    pdd = _poly_eval(*self._d2[d1][d2], xi, powers)
                    h = (
                        pdd * b
                        + pd[d1] * bq * 2.0 * xi[d2]
                        + pd[d2] * bq * 2.0 * xi[d1]
                        + p * (bqq * 4.0 * xi[d1] * xi[d2])
                    )
                    if d1 == d2:
                        h = h + p * bq * 2.0
                    hess[:, d1, d2] = h / self.scale**2
                    hess[:, d2, d1] = hess[:, d1, d2]

    def value(self, coords) -> np.ndarray:
        return self.jet(coords, 0)[0]

    def gradient(self, coords) -> np.ndarray:
        return self.jet(coords, 1)[1]

    def hessian(self, coords) -> np.ndarray:
        return self.jet(coords, 2)[2]


def linear_bump(center, scale, direction, bump="poly") -> TestFunction:
    """Bump times the linear form <direction, coords - center>."""
    center = np.asarray(center, dtype=float)
    direction = np.asarray(direction, dtype=float)
    dim = center.size
    exps = np.eye(dim, dtype=int)
    # the polynomial lives in xi = (coords - center)/scale
    return TestFunction(center, scale, exps, direction * scale, bump=bump)


def indicator_like(dim: int, radius: float) -> TestFunction:
    """Plateau bump equal to 1 within radius/2 of the origin."""
    return TestFunction(
        np.zeros(dim), radius, np.zeros((1, dim), dtype=int), np.ones(1), bump="plateau"
    )


FAMILY_SEED = 20240817


def standard_family(params, count=32, seed=FAMILY_SEED):
    """The frozen sweep family: `count` bump-times-polynomial functions.

    Centers alternate between the unit-ball region and points outside it,
    scales cycle through 0.25-4, polynomial degrees cycle 0-4.  Fully
    determined by the seed, so sweeps are reproducible.
    """
    dim = params.dim
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    scales = [0.25, 0.5, 1.0, 2.0, 4.0]
    funcs = []
    for idx in range(count):
        scale = scales[idx % len(scales)]
        degree = idx % 5
        if idx % 2 == 0:
            center = rng.uniform(-0.3, 0.3, size=dim)
        else:
            center = rng.uniform(-2.0, 2.0, size=dim)
            center[0] += 1.5 * np.sign(center[0]) if center[0] != 0 else 1.5
        exps_list = [tuple([0] * dim)]
        for _ in range(2 * degree):
            e = [0] * dim
            total = rng.integers(0, degree + 1)
            for _ in range(int(total)):
                e[int(rng.integers(0, dim))] += 1
            exps_list.append(tuple(e))
        exps_arr = np.array(sorted(set(exps_list)), dtype=int)
        coeffs = rng.uniform(-1.0, 1.0, size=exps_arr.shape[0])
        coeffs[0] += 1.0  # keep a constant component so f is not tiny
        funcs.append(TestFunction(center, scale, exps_arr, coeffs))
    return funcs
