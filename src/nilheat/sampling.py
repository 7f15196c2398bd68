"""Reproducible sample clouds.

All random draws go through counter-based Philox generators keyed by
(seed, stream), so any sweep can be chunked or parallelized without
changing the numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import distance_squared_arrays
from .groups import GroupParams, block_norms_sq_flat

__all__ = [
    "CloudSpec",
    "philox",
    "uniform_box",
    "ball_bounding_box",
    "unit_ball_points",
    "kernel_feasible_mask",
]


@dataclass(frozen=True)
class CloudSpec:
    """Uniform box cloud: |x|,|y| <= z_halfwidth, |t| <= t_halfwidth."""

    count: int
    z_halfwidth: float
    t_halfwidth: float
    seed: int

    def __post_init__(self):
        if self.count < 1 or self.z_halfwidth <= 0 or self.t_halfwidth <= 0:
            raise ValueError("invalid cloud spec")


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_box(params: GroupParams, spec: CloudSpec, stream: int = 0) -> np.ndarray:
    """Uniform flat coordinates in the spec box, shape (count, 2n+1)."""
    rng = philox(spec.seed, stream)
    out = np.empty((spec.count, params.dim))
    out[:, : 2 * params.n] = rng.uniform(
        -spec.z_halfwidth, spec.z_halfwidth, size=(spec.count, 2 * params.n)
    )
    out[:, 2 * params.n] = rng.uniform(-spec.t_halfwidth, spec.t_halfwidth, size=spec.count)
    return out


def ball_bounding_box(params: GroupParams):
    """(z_halfwidth, t_halfwidth) of a box containing the unit ball.

    Inside the ball |z| < 1 coordinate-wise, and |t| <= d^2/pi plus the
    boundary-branch correction sum a_j |cot(a_j pi)| |z_j|^2.
    """
    t_half = 1.0 / math.pi
    for aj in params.a[:-1]:
        t_half += aj * abs(math.cos(aj * math.pi) / math.sin(aj * math.pi))
    return 1.0, t_half * 1.0001


def unit_ball_points(params: GroupParams, count: int, seed: int, stream: int) -> np.ndarray:
    """The points with d < 1 among `count` uniform draws in the ball's
    bounding box; uniform on the unit ball.  ValueError if none of the
    draws lands in the ball.

    Only draws with |z| < 1 go to the distance solve: d >= |z|, since in
    the chart |z|^2 = 4 sum_j |u_j|^2 sin^2(a_j eta) <= U^2 eta^2 = d^2."""
    z_half, t_half = ball_bounding_box(params)
    box = uniform_box(params, CloudSpec(count, z_half, t_half, seed), stream)
    zsq = block_norms_sq_flat(params, box)
    near = np.sum(zsq, axis=-1) < 1.0
    box, zsq = box[near], zsq[near]
    kept = box[distance_squared_arrays(params, zsq, box[:, -1]) < 1.0]
    if kept.shape[0] == 0:
        raise ValueError(f"none of {count} draws in the bounding box lands in the unit ball")
    return kept


# log-units of real-line cancellation a cloud point may cost the kernel
_CANCELLATION_BUDGET = 25.0


def kernel_feasible_mask(params: GroupParams, coords, h: float = 1.0):
    """Points where real-line kernel quadrature would keep enough
    precision: its oscillatory cancellation (d^2 - |z|^2)/(4h) stays under
    `_CANCELLATION_BUDGET`."""
    coords = np.asarray(coords, dtype=float)
    zsq = block_norms_sq_flat(params, coords)
    d2 = distance_squared_arrays(params, zsq, coords[..., -1])
    return (d2 - np.sum(zsq, axis=-1)) / (4.0 * h) <= _CANCELLATION_BUDGET
