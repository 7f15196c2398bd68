"""Verification suites: orchestration of the library checks into reports.

Each suite function takes a RunConfig and returns one VerificationReport
whose stats collect the sub-check results; the verdict is the conjunction
of the analytic sub-verdicts.  `run_suite` then gates the report once
against the frozen regression values (recorded on the first verified run,
shipped as package data): `FROZEN_BANDS` names, per suite, each frozen key,
the stats path it reads and its band kind.  Empirical constants get a
+-20 percent band, ratio extremes a 0.8 / 1.2 collar on the frozen
extreme, and the distance-equivalence extremes a 0.9 / 1.1 collar.  When a
group has no frozen entry the verdict covers only the analytic checks,
with a note.  `nilheat.freeze` reads the same table from ungated runs.

No numeric logic lives in the CLI; everything observable is produced
here or deeper in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import distance as dist
from . import kernel as ker
from . import polar
from . import semigroup as sg
from .groups import (
    GroupParams,
    block_norms_sq_flat,
    horizontal_components,
    inverse_flat,
    multiply_flat,
)
from .reports import VerificationReport, load_frozen_bounds, within_band
from .sampling import CloudSpec, kernel_feasible_mask, philox, uniform_box
from .testfuncs import indicator_like, standard_family

__all__ = [
    "SUITE_NAMES",
    "RunConfig",
    "config_from_dict",
    "run_suite",
    "SUITE_RUNNERS",
    "FROZEN_BANDS",
    "band_values",
]

SUITE_NAMES = ("distance", "kernel", "polar", "lemma6", "cheeger", "li", "lse-poe")

_DEFAULT_SIZES = {
    "distance_points": 10000,
    "scaling_points": 1000,
    "kernel_cloud": 10000,
    "symmetry_points": 200,
    "polar_points": 1000,
    "lemma6_points": 1000,
    "family": 32,
    "li_points": 16,
    "ball_count": 200000,
}


@dataclass
class RunConfig:
    group: GroupParams
    seed: int
    output_dir: str = "reports"
    suites: tuple = SUITE_NAMES
    quadrature: ker.QuadratureSpec = field(default_factory=ker.QuadratureSpec)
    diffusion_paths: int = 10000
    h_values: tuple = (0.25, 0.5, 1.0, 2.0)
    sizes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("a seed is mandatory")
        bad = [s for s in self.suites if s not in SUITE_NAMES]
        if bad:
            raise ValueError(f"unknown suites: {bad}")
        merged = dict(_DEFAULT_SIZES)
        merged.update(self.sizes)
        self.sizes = merged

    def diffusion(self, stream=0) -> sg.DiffusionSpec:
        return sg.DiffusionSpec(paths=self.diffusion_paths, seed=self.seed, stream=stream)

    def frozen_for(self, suite: str):
        """The shipped frozen entry of this group's suite, or None."""
        try:
            table = load_frozen_bounds()
        except FileNotFoundError:
            return None
        return table.get(self.group.label(), {}).get(suite)


def _reject_unknown(where: str, block, allowed):
    """ValueError unless block is a dict whose keys are all in allowed."""
    if not isinstance(block, dict):
        raise ValueError(f"config {where} must be an object, got {block!r}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; choose from {sorted(allowed)}")


def _finite_from(where: str, val):
    """A config number, returned as given; ValueError for a bool, a
    non-number, NaN, an infinity or an integer too large for a float."""
    try:
        finite = not isinstance(val, bool) and isinstance(val, (int, float)) and math.isfinite(val)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{where} must be a finite number, got {val!r}")
    return val


def _quadrature_from_dict(q) -> ker.QuadratureSpec:
    """QuadratureSpec from the config's quadrature block; ValueError if malformed."""
    _reject_unknown("quadrature", q, [f.name for f in fields(ker.QuadratureSpec)])
    return ker.QuadratureSpec(**{key: _finite_from(f"quadrature {key}", val) for key, val in q.items()})


# the keys config_from_dict reads; seed and output_dir double as
# command-line overrides
_CONFIG_KEYS = ("seed", "group", "output_dir", "suites", "quadrature", "diffusion", "h_values", "sizes")


def _h_values_from(h) -> tuple:
    """Time parameters from the config; ValueError unless a non-empty list
    of positive finite numbers."""
    if isinstance(h, list) and h and all(_finite_from("h_values entry", v) > 0 for v in h):
        return tuple(h)
    raise ValueError(f"h_values must be a non-empty list of positive finite numbers, got {h!r}")


def _count_from(where: str, val, least: int = 1) -> int:
    """An integer from the config; ValueError unless it is >= least (an
    integral float such as 200.0 is accepted, a bool is not)."""
    integral = isinstance(val, int) or (isinstance(val, float) and val.is_integer())
    if isinstance(val, bool) or not integral or val < least:
        raise ValueError(f"{where} must be an integer >= {least}, got {val!r}")
    return int(val)


def config_from_dict(d: dict) -> RunConfig:
    """Build a RunConfig from a parsed config file plus CLI overrides."""
    if "seed" not in d:
        raise ValueError("config must set a seed")
    _reject_unknown("config", d, _CONFIG_KEYS)
    _reject_unknown("sizes", d.get("sizes", {}), _DEFAULT_SIZES)
    g = d.get("group", {})
    _reject_unknown("group", g, ("l", "k", "a"))
    # the keys the file leaves out keep their RunConfig defaults
    opts = {}
    if "output_dir" in d:
        output_dir = opts["output_dir"] = d["output_dir"]
        if not (isinstance(output_dir, str) and output_dir):
            raise ValueError(f"output_dir must be a non-empty string, got {output_dir!r}")
    try:
        group = GroupParams(
            _count_from("group l", g["l"]),
            tuple(_count_from("group k entry", v) for v in g["k"]),
            tuple(_finite_from("group a entry", v) for v in g["a"]),
        )
    except KeyError as exc:
        raise ValueError(f"config group is missing {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"config group is malformed: {exc}") from exc
    quad = _quadrature_from_dict(d.get("quadrature", {}))
    diff = d.get("diffusion", {})
    _reject_unknown("diffusion", diff, ("paths",))
    if "suites" in d:
        suites = d["suites"]
        if not isinstance(suites, list):
            raise ValueError(f"suites must be a list of suite names, got {suites!r}")
        opts["suites"] = tuple(suites)
    seed = _count_from("seed", d["seed"], least=0)
    if "paths" in diff:
        opts["diffusion_paths"] = _count_from("diffusion paths", diff["paths"])
    if "h_values" in d:
        opts["h_values"] = _h_values_from(d["h_values"])
    return RunConfig(
        group=group,
        seed=seed,
        quadrature=quad,
        # the semigroup suites read family members 2 and 4 by index and the
        # Holder check the first eight (as many as there are)
        sizes={
            k: _count_from(f"sizes {k}", v, 7 if k == "family" else 1) for k, v in d.get("sizes", {}).items()
        },
        **opts,
    )


def _is_h1(group: GroupParams) -> bool:
    return group.l == 1 and group.k == (1,) and group.a == (1.0,)


# ---------------------------------------------------------------------------
# distance suite
# ---------------------------------------------------------------------------

def suite_distance(cfg: RunConfig) -> VerificationReport:
    params = cfg.group
    count = cfg.sizes["distance_points"]
    cloud = CloudSpec(count, 2.0, 3.0, cfg.seed)
    coords = uniform_box(params, cloud, stream=1)
    zsq = block_norms_sq_flat(params, coords)
    t = coords[:, -1]
    rep = VerificationReport(
        identifier="distance",
        config={"group": params.label(), "count": count},
        seed=cfg.seed,
    )

    theta, branch, residual = dist.solve_theta_arrays(params, zsq, t)
    interior = branch != 2
    scaled_res = np.abs(residual[interior]) / (1.0 + np.abs(t[interior]))
    # interior solves degenerating toward the chart edge (theta within
    # 1e-8 of +-pi) are accepted at a widened tolerance and flagged
    near_edge = np.abs(theta[interior]) >= math.pi - 1e-8
    strict_ok = scaled_res <= 1e-12
    flagged = int(np.sum(near_edge & ~strict_ok & (scaled_res <= 1e-6)))
    if flagged:
        rep.notes.append(f"{flagged} near-edge solves accepted at widened tolerance")
    rep.stats["residual_max_scaled"] = float(np.max(scaled_res[~near_edge]))
    rep.require(
        bool(np.all(strict_ok | (near_edge & (scaled_res <= 1e-6)))),
        "angle-equation residual above 1e-12 (1 + |t|)",
    )

    d2, th, br, form2 = dist.distance_squared_arrays(params, zsq, t, return_parts=True)
    mask = br != 2
    rel = np.abs(d2[mask] - form2[mask]) / np.maximum(d2[mask], 1e-300)
    rep.stats["form_agreement_max"] = float(rel.max())
    rep.require(float(rel.max()) <= 1e-10, "closed-form variants disagree beyond 1e-10")

    # t = 0 slice: d = |z|
    d2z = dist.distance_squared_arrays(params, zsq, np.zeros(count))
    relz = np.abs(d2z - zsq.sum(axis=-1)) / np.maximum(zsq.sum(axis=-1), 1e-300)
    rep.stats["z_slice_max"] = float(relz.max())
    rep.require(float(relz.max()) <= 1e-10, "d(z, 0) must equal |z|")

    # z = 0 axis: d^2 = pi |t|
    taxis = np.linspace(-3.0, 3.0, 101)
    taxis = taxis[taxis != 0.0]
    d2t = dist.distance_squared_arrays(params, np.zeros((taxis.size, params.l)), taxis)
    relt = np.abs(d2t - math.pi * np.abs(taxis)) / (math.pi * np.abs(taxis))
    rep.stats["t_axis_max"] = float(relt.max())
    rep.require(float(relt.max()) <= 1e-10, "d(0, t)^2 must equal pi |t|")

    # homogeneity under dilation
    rng = philox(cfg.seed, 2)
    r = rng.uniform(0.3, 3.0, size=count)
    d2r = dist.distance_squared_arrays(params, zsq * r[:, None] ** 2, t * r**2)
    relh = np.abs(d2r - r**2 * d2) / np.maximum(r**2 * d2, 1e-300)
    rep.stats["homogeneity_max"] = float(relh.max())
    rep.require(float(relh.max()) <= 1e-10, "dilation homogeneity broken")

    # boundary-branch continuity: interior distance approaches the boundary
    # formula as |t| climbs to the threshold with z_l -> 0
    base = np.abs(coords[0, : 2 * params.n]) + 0.5
    zsq_head = block_norms_sq_flat(params, np.concatenate([base, [0.0]]))
    zsq_head[-1] = 0.0
    thr = dist.boundary_threshold(params, zsq_head)
    cont_err = 0.0
    if thr > 0:
        eps_zl = 1e-7
        zsq_near = zsq_head.copy()
        zsq_near[-1] = eps_zl**2
        d2_int = dist.distance_squared_arrays(params, zsq_near, np.asarray(thr))
        d2_bdy = dist.distance_squared_arrays(params, zsq_head, np.asarray(thr))
        cont_err = abs(float(d2_int) - float(d2_bdy)) / float(d2_bdy)
    else:
        # single-block groups: the t-axis value pi |t| against |z_l| = 1e-5
        tref = 1.7
        d2_int = dist.distance_squared_arrays(params, np.eye(params.l)[-1] * 1e-5**2, np.asarray(tref))
        cont_err = abs(float(d2_int) - math.pi * tref) / (math.pi * tref)
    rep.stats["boundary_continuity"] = cont_err
    rep.require(cont_err <= 1e-3, "interior/boundary branch mismatch along z_l -> 0")

    # monotone map roundtrip
    ws = np.linspace(-3.1, 3.1, 63)
    theta = dist.mu_inverse(ws)
    rt = np.abs(dist.mu_inverse(dist.mu(theta)) - theta)
    rep.stats["mu_roundtrip_max"] = float(rt.max())
    rep.require(float(rt.max()) <= 1e-12, "mu inverse roundtrip above 1e-12")

    eq = dist.check_distance_equivalence(params, CloudSpec(count, 2.0, 3.0, cfg.seed))
    rep.stats["equivalence"] = dict(eq.stats)
    rep.require_report(eq, "distance equivalence report failed")
    return rep


# ---------------------------------------------------------------------------
# kernel suite
# ---------------------------------------------------------------------------

def suite_kernel(cfg: RunConfig) -> VerificationReport:
    params = cfg.group
    spec = cfg.quadrature
    rep = VerificationReport(
        identifier="kernel",
        config={"group": params.label()},
        seed=cfg.seed,
    )

    if _is_h1(params):
        anchor = float(ker.kernel_zsq(params, 1.0, np.zeros(params.l), 0.0, spec)[0])
        rep.stats["origin_value"] = anchor
        rep.stats["origin_abs_error"] = abs(anchor - 1.0 / 64.0)
        rep.require(
            rep.stats["origin_abs_error"] <= 1e-6,
            "unit-time origin value off the 1/64 anchor",
        )
    # int p_1 cos(mu t/4) dt = (4 pi)^-n E(mu), E in closed form; p is even in t, the rows are
    # seed-independent (row 0 the t-axis), and mu = 0 is the t-marginal, of unit mass in z
    zeta = np.vstack([np.zeros(params.l), philox(0, 8).uniform(0.0, 6.0, size=(3, params.l))])
    t_nodes, t_wts = ker._panel_rule(np.linspace(0.0, 55.0, 23), *np.polynomial.legendre.leggauss(16))
    mu = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    x = np.multiply.outer(mu, params.a)
    x_sinh, x_coth = (np.divide(x, f(x), out=np.ones_like(x), where=x > 0) for f in (np.sinh, np.tanh))
    exact = np.prod(x_sinh ** np.asarray(params.k), axis=-1) * np.exp(-0.25 * zeta @ x_coth.T)
    fourier = 2.0 * (4.0 * math.pi) ** params.n * t_wts[:, None] * np.cos(np.multiply.outer(t_nodes, mu / 4.0))
    vals, _ = ker.kernel_zsq(params, 1.0, zeta[:, None], t_nodes, spec)
    dev = float(np.max(np.abs(vals @ fourier - exact) / exact[:, :1]))
    rep.stats["t_fourier_points_max"] = dev
    rep.require(dev <= 1e-10, "t-Fourier identity off beyond 1e-10 on the points engine")

    # scaling law over random (h, g)
    rng = philox(cfg.seed, 3)
    nsc = cfg.sizes["scaling_points"]
    cloud = uniform_box(params, CloudSpec(nsc, 2.0, 2.0, cfg.seed), stream=4)
    keep = kernel_feasible_mask(params, cloud, h=0.25)
    cloud = cloud[keep]
    hs = rng.uniform(0.25, 4.0, size=cloud.shape[0])
    zsq, t = block_norms_sq_flat(params, cloud), cloud[:, -1]
    # each point has its own h on the left; the right side is at h = 1
    left, left_err = ker.kernel_zsq(params, hs, zsq, t, spec)
    right, right_err = ker.kernel_zsq(params, 1.0, zsq / hs[:, None], t / hs, spec)
    dev, _ = ker.scaling_deviation(params, hs, left, left_err, right, right_err)
    worst = float(np.max(dev, initial=0.0))
    rep.stats["scaling_max_deviation"] = worst
    rep.stats["scaling_cases"] = int(cloud.shape[0])
    rep.require(
        bool(np.all(left > 0) and np.all(right > 0)),
        "scaling-law kernel values must be positive",
    )
    rep.require(worst <= 1e-8, "scaling law deviation above 1e-8")

    # symmetry identities
    nsym = cfg.sizes["symmetry_points"]
    pts = uniform_box(params, CloudSpec(nsym, 1.5, 1.5, cfg.seed), stream=5)
    pts = pts[kernel_feasible_mask(params, pts)]
    out = ker.kernel_derivatives(params, 1.0, pts, spec)
    vals, dp = out["p"], out["dp"]
    vals_inv, _ = ker.kernel_points(params, 1.0, inverse_flat(pts), spec)
    inv_err = float(np.max(np.abs(vals - vals_inv) / vals))
    rep.stats["inversion_symmetry_max"] = inv_err
    rep.require(inv_err <= 1e-8, "inversion symmetry broken")

    n = params.n
    x, y = pts[:, 0 : 2 * n : 2], pts[:, 1 : 2 * n : 2]
    lhs = x * dp[:, 1 : 2 * n : 2]
    rhs = y * dp[:, 0 : 2 * n : 2]
    scale = np.maximum(np.abs(lhs), np.abs(rhs)).max()
    rot_err = float(np.max(np.abs(lhs - rhs)) / max(scale, 1e-300))
    rep.stats["rotation_identity_max"] = rot_err
    rep.require(rot_err <= 1e-8, "x d_y p = y d_x p identity broken")

    # equivalent complex-frame identity: conj(z) (X-hat + i Y-hat) p
    # = z (X - i Y) p, with hats the right-invariant frame
    zc = x + 1j * y
    rfr = horizontal_components(params, dp, pts, "right")
    lfr = horizontal_components(params, dp, pts, "left")
    left = np.conj(zc) * (rfr[:, 0::2] + 1j * rfr[:, 1::2])
    right = zc * (lfr[:, 0::2] - 1j * lfr[:, 1::2])
    cscale = max(float(np.max(np.abs(left))), 1e-300)
    frame_err = float(np.max(np.abs(left - right)) / cscale)
    rep.stats["complex_frame_identity_max"] = frame_err
    rep.require(frame_err <= 1e-8, "complex frame identity broken")

    # log-derivative bounds: empirical constants over the cloud and h set
    ncl = cfg.sizes["kernel_cloud"]
    cl = uniform_box(params, CloudSpec(ncl, 2.0, 2.0, cfg.seed), stream=6)
    cl = cl[kernel_feasible_mask(params, cl, h=min(cfg.h_values))]
    d = np.sqrt(dist.distance_squared_arrays(params, block_norms_sq_flat(params, cl), cl[:, -1]))
    sel = d > 0.1
    h = np.asarray(cfg.h_values)[:, None]
    comps, dt = ker.log_kernel_derivatives(params, h, cl, spec)
    gnorm = np.sqrt(np.sum(comps**2, axis=-1))
    c3 = float(np.max(h * gnorm[:, sel] / d[sel]))
    c4 = float(np.max(h * np.abs(dt)))
    rep.stats["log_gradient_constant"] = c3
    rep.stats["t_log_derivative_constant"] = c4
    rep.require(np.isfinite(c3) and np.isfinite(c4), "log-derivative sups must be finite")

    comparison = ker.check_kernel_comparison(params, cl, spec)
    rep.stats["comparison"] = dict(comparison.stats)
    rep.require_report(comparison, "two-sided comparison report failed")

    # halving the tolerance must stay inside the coarser error estimate
    probe_pts = cl[:8]
    coarse_v, coarse_e = ker.kernel_points(params, 1.0, probe_pts, spec)
    fine_v, _ = ker.kernel_points(params, 1.0, probe_pts, replace(spec, tol=spec.tol / 2.0))
    conv_ok = bool(np.all(np.abs(fine_v - coarse_v) <= np.maximum(coarse_e, 1e-16)))
    rep.stats["refinement_consistent"] = conv_ok
    rep.require(conv_ok, "tolerance halving moved values beyond the error estimate")
    return rep


# ---------------------------------------------------------------------------
# polar suite
# ---------------------------------------------------------------------------

def _random_polar_cloud(params, count, seed):
    rng = philox(seed, 7)
    u = rng.uniform(-2.0, 2.0, size=(count, 2 * params.n))
    # keep the top block away from zero
    top = u[:, -2 * params.k[-1] :]
    small = np.sqrt(np.sum(top**2, axis=-1)) < 0.05
    top[small, 0] += 0.5
    eta = rng.uniform(0.05, 3.0, size=count) * rng.choice([-1.0, 1.0], size=count)
    return u, eta


def suite_polar(cfg: RunConfig) -> VerificationReport:
    params = cfg.group
    count = cfg.sizes["polar_points"]
    rep = VerificationReport(
        identifier="polar", config={"group": params.label(), "count": count}, seed=cfg.seed
    )
    u, eta = _random_polar_cloud(params, count, cfg.seed)
    coords = polar.psi_flat(params, u, eta)
    zsq = block_norms_sq_flat(params, coords)

    # angle coordinate and distance along the chart
    d2, theta, _, _ = dist.distance_squared_arrays(params, zsq, coords[:, -1], return_parts=True)
    ang_err = float(np.max(np.abs(theta - eta)))
    rep.stats["angle_roundtrip_max"] = ang_err
    rep.require(ang_err <= 1e-10, "angle coordinate of the chart is off")

    usq = block_norms_sq_flat(params, u)
    Ueta = np.sqrt(polar.speed_sq_arrays(params, usq)) * np.abs(eta)
    d = np.sqrt(d2)
    d_err = float(np.max(np.abs(d - Ueta) / Ueta))
    rep.stats["distance_vs_speed_max"] = d_err
    rep.require(d_err <= 1e-8, "chart distance must equal U |eta|")

    # chart roundtrip through the inverse
    u_back, _ = polar.psi_inverse_flat(params, coords)
    rt = float(np.max(np.abs(u_back - u)))
    rep.stats["chart_roundtrip_max"] = rt
    rep.require(rt <= 1e-10, "chart roundtrip above 1e-10")

    # closed form and the bordered recursion vs LU, on the chart's own
    # Jacobians
    nj = min(count, 1000)
    M = polar.jacobian_matrix_flat(params, u[:nj], eta[:nj])
    lu = np.linalg.det(M)
    J = polar.jacobian_closed_form_arrays(params, usq, eta)
    worst_cf = float(np.max(np.abs(lu - J[:nj]) / np.maximum(np.abs(lu), 1e-300)))
    rep.stats["closed_form_vs_lu_max"] = worst_cf
    rep.require(worst_cf <= 1e-9, "closed-form Jacobian drifted from the LU determinant")
    rec = polar.det_bordered(M)
    worst_rec = float(np.max(np.abs(lu - rec) / np.maximum(np.abs(lu), 1e-12)))
    rep.stats["recursion_vs_lu_max"] = worst_rec
    rep.require(worst_rec <= 1e-9, "bordered determinant recursion drifted from LU")

    # power-law comparison for J
    comp = polar.jacobian_comparison_arrays(params, usq, eta)
    jr = J / comp
    rep.stats["jacobian_ratio_min"] = float(jr.min())
    rep.stats["jacobian_ratio_max"] = float(jr.max())
    rep.require(
        bool(np.isfinite(jr).all()) and float(jr.min()) > 0, "Jacobian comparison ratio degenerate"
    )

    # piecewise p*J comparison on the exterior cloud
    n_ext = max(count // 2, 200)
    ue, ee, labels, diag = polar.sample_exterior_cloud(params, n_ext, cfg.seed)
    usq_e = block_norms_sq_flat(params, ue)
    ce = polar.psi_flat(params, ue, ee)
    pe, _ = ker.kernel_points(params, 1.0, ce, cfg.quadrature)
    Je = polar.jacobian_closed_form_arrays(params, usq_e, ee)
    est = polar.pj_estimate_arrays(params, usq_e, ee)
    pj_ratio = pe * Je / est
    rep.stats["pj_ratio_min"] = float(pj_ratio.min())
    rep.stats["pj_ratio_max"] = float(pj_ratio.max())
    rep.stats["region_counts"] = {f"R{k}": int(v) for k, v in diag["per_region"].items()}
    rep.require(
        bool(np.isfinite(pj_ratio).all()) and float(pj_ratio.min()) > 0,
        "p*J comparison ratio degenerate",
    )

    # overlap consistency of the wide/narrow comparison formulas
    gap = math.pi - np.abs(ee)
    zone = (gap >= polar.ANGLE_MARGIN) & (gap <= polar.ANGLE_SPLIT)
    if np.any(zone):
        wide, narrow, _ = polar._pj_cases(params, usq_e[zone], ee[zone])
        ov = wide / narrow
        rep.stats["overlap_factor_min"] = float(ov.min())
        rep.stats["overlap_factor_max"] = float(ov.max())

    # every ray of the cloud horizontal at speed U|eta|, in closed form
    rays = polar.check_horizontal_rays(params, u, eta)
    rep.stats["horizontal_rays"] = dict(rays.stats)
    rep.require_report(rays, "chart rays are not horizontal at speed U|eta|")

    cov = polar.check_change_of_variables(params)
    rep.stats["change_of_variables"] = dict(cov.stats)
    rep.require_report(cov, "pushforward integral mismatch")
    return rep


# ---------------------------------------------------------------------------
# ray-integral suite
# ---------------------------------------------------------------------------

def suite_lemma6(cfg: RunConfig) -> VerificationReport:
    params = cfg.group
    count = cfg.sizes["lemma6_points"]
    rep = VerificationReport(
        identifier="lemma6", config={"group": params.label(), "count": count}, seed=cfg.seed
    )
    u, eta, labels, diag = polar.sample_exterior_cloud(params, count, cfg.seed)
    out = polar.ray_integrals(params, u, eta, cfg.quadrature)
    ratios = out["ratio"]
    rel_errors = out["integral_error"] / np.abs(out["integral"])
    sups = {k: float(np.max(ratios[labels == k], initial=0.0)) for k in (1, 2, 3)}
    rep.stats["region_counts"] = {f"R{k}": int(v) for k, v in diag["per_region"].items()}
    rep.stats["sup_ratio"] = float(np.max(ratios))
    rep.stats["per_region_sup"] = {f"R{k}": v for k, v in sorted(sups.items())}
    rep.stats["min_ratio"] = float(np.min(ratios))
    rep.stats["integral_rel_error_max"] = float(np.max(rel_errors))
    rep.require(bool(np.isfinite(ratios).all()), "ray-integral ratio not finite everywhere")
    rep.require(float(np.min(ratios)) > 0.0, "ray-integral ratio must be positive")
    rep.require(
        rep.stats["integral_rel_error_max"] <= 1e-4,
        "ray-integral error estimate above 1e-4 of the integral",
    )
    rep.require(
        all(v > 0 for v in diag["per_region"].values()), "all three regions must be covered"
    )
    return rep


# ---------------------------------------------------------------------------
# semigroup suites
# ---------------------------------------------------------------------------

def _family_and_points(cfg):
    params = cfg.group
    fam = standard_family(params, count=cfg.sizes["family"])
    pts_arr = uniform_box(params, CloudSpec(cfg.sizes["li_points"], 1.5, 2.0, cfg.seed), stream=14)
    return fam, [pts_arr[i] for i in range(pts_arr.shape[0])]


def suite_cheeger(cfg: RunConfig) -> VerificationReport:
    params = cfg.group
    fam, _ = _family_and_points(cfg)
    rep = VerificationReport(identifier="cheeger", config={"group": params.label()}, seed=cfg.seed)
    inner = sg.check_cheeger(params, fam, cfg.diffusion(), ball_count=cfg.sizes["ball_count"])
    rep.stats.update(inner.stats)
    rep.exclusions = inner.exclusions
    rep.require_report(inner, "oscillation-ratio report failed")

    # dual-route ball average on a representative function; the midpoint
    # grid carries an O(1/points) boundary bias, so it only challenges the
    # Monte Carlo route in low dimension
    f = fam[2]
    m1, se1 = sg.ball_mean(params, f, "mc", count=cfg.sizes["ball_count"], seed=cfg.seed)
    if params.dim <= 3:
        m2, _ = sg.ball_mean(params, f, "grid", grid_points=40)
        pull = abs(m1 - m2) / max(se1, 1e-12)
        rep.stats["ball_mean_pull"] = pull
        rep.require(pull <= 3.0, "ball mean routes disagree beyond 3 SE")
    else:
        m2, se2 = sg.ball_mean(params, f, "mc", count=cfg.sizes["ball_count"], seed=cfg.seed + 1)
        pull = abs(m1 - m2) / math.sqrt(se1**2 + se2**2)
        rep.stats["ball_mean_pull"] = pull
        rep.require(pull <= 3.0, "independent ball means disagree beyond 3 SE")
    return rep


def suite_li(cfg: RunConfig) -> VerificationReport:
    params = cfg.group
    fam, points = _family_and_points(cfg)
    rep = VerificationReport(identifier="li", config={"group": params.label()}, seed=cfg.seed)

    li = sg.check_li_inequality(params, fam, points, cfg.h_values, cfg.diffusion())
    rep.stats["gradient_bound"] = dict(li.stats)
    rep.constant = li.constant
    rep.exclusions = li.exclusions
    rep.require_report(li, "gradient-bound report failed")

    # mass conservation
    one = indicator_like(params.dim, 60.0)
    val, se = sg.semigroup_estimate(params, one, 1.0, np.zeros(params.dim), "mc", cfg.diffusion(21))
    rep.stats["markov_value"] = val
    rep.require(abs(val - 1.0) <= 3.0 * max(se, 1e-12) + 1e-12, "mass conservation violated")

    # commutation and integration by parts on a mid-sized member
    f = fam[4]
    g0 = points[min(1, len(points) - 1)]  # the second point, or the only one
    comm = sg.check_commutation(params, f, 1.0, g0, cfg.diffusion(22))
    rep.stats["commutation_worst"] = comm.stats["worst_rel_error"]
    rep.stats["commutation_left_worst"] = comm.stats["left_worst_rel_error"]
    rep.require_report(comm, "commutation mismatch")

    if params.dim <= 3:
        ibp = sg.check_integration_by_parts(params, f, cfg.quadrature)
        rep.stats["integration_by_parts_worst"] = ibp.stats["worst_rel_error"]
        rep.require_report(ibp, "integration by parts mismatch")

    # semigroup property via convolved samplers
    h1v, h2v = 0.5, 1.0
    W1 = sg.sample_heat_points(params, h1v, cfg.diffusion(23))
    W2 = sg.sample_heat_points(params, h2v, cfg.diffusion(24))
    W12 = sg.sample_heat_points(params, h1v + h2v, cfg.diffusion(25))
    fsel = fam[4]  # scale 4: on dim >= 7 a narrower member can miss every sample row
    parts = [fsel.support_jet(W) for W in (multiply_flat(params, W1, W2), W12)]
    (m2, v2), (m1, v1) = (sg._mean_var(val, cfg.diffusion_paths) for _, (val,) in parts)
    pull = abs(m2 - m1) / math.sqrt((v2 + v1) / cfg.diffusion_paths + 1e-300)
    rep.stats["semigroup_property_pull"] = pull
    rows = {"two_stage": parts[0][0].size, "one_stage": parts[1][0].size}
    rep.stats["semigroup_property_rows"] = rows
    rep.require(min(rows.values()) > 0, "no sample row inside the semigroup-property test function")
    rep.require(pull <= 3.0, "semigroup property violated beyond 3 SE")

    holder = sg.check_holder_corollary(
        params, fam[:8], points[:4], cfg.h_values[:2], cfg.diffusion(), constant=max(li.constant, 1.0)
    )
    rep.stats["holder"] = dict(holder.stats)
    rep.require_report(holder, "exponent-2 consequence failed")
    return rep


def suite_lse_poe(cfg: RunConfig) -> VerificationReport:
    params = cfg.group
    fam, points = _family_and_points(cfg)
    rep = VerificationReport(identifier="lse-poe", config={"group": params.label()}, seed=cfg.seed)
    inner = sg.check_log_sobolev_poincare(params, fam, points[:8], cfg.h_values, cfg.diffusion())
    rep.stats.update(inner.stats)
    rep.exclusions = inner.exclusions
    rep.require_report(inner, "entropy/variance report failed")

    # small-h scaling of the variance numerator
    f = fam[4]
    g0 = np.zeros(params.dim)
    ratios = []
    for hi, h in enumerate((0.1, 0.05)):
        W = sg.sample_heat_points(params, h, cfg.diffusion(60 + hi))
        pts = multiply_flat(params, g0, W)
        phi, grad = f.jet(pts, 1)
        gsq = sg._hgrad_power(params, grad, pts, power=2)
        den = h * float(np.mean(gsq))
        ratios.append(sg._mean_var(phi)[1] / den if 0.0 < den < math.inf else math.nan)
    rep.stats["small_h_ratios"] = ratios
    # a tiny sample can leave a ratio at zero (one path has no variance)
    scaled = all(0.0 < r < math.inf for r in ratios)
    rep.require(scaled, "small-h variance ratio is zero or not finite")
    rep.require(
        not scaled or 0.5 <= ratios[1] / ratios[0] <= 2.0, "variance numerator is not O(h) at small h"
    )
    return rep


SUITE_RUNNERS = {
    "distance": suite_distance,
    "kernel": suite_kernel,
    "polar": suite_polar,
    "lemma6": suite_lemma6,
    "cheeger": suite_cheeger,
    "li": suite_li,
    "lse-poe": suite_lse_poe,
}

# band kind -> test of a report value against its frozen value: constants
# within 20 percent, ratio extremes inside a 0.8 / 1.2 collar
_BAND_KINDS = {
    "constant": within_band,
    "min": lambda value, frozen: value >= frozen * 0.8,
    "max": lambda value, frozen: value <= frozen * 1.2,
    # a 10 percent collar: fresh clouds approach the true extremes of the
    # box from inside, so the recorded values are not hard walls
    "collar_min": lambda value, frozen: value >= frozen * 0.9,
    "collar_max": lambda value, frozen: value <= frozen * 1.1,
}

# suite -> {frozen key: (path into the report's stats, band kind)}
FROZEN_BANDS = {
    "distance": {
        "ratio_min": (("equivalence", "ratio_min"), "collar_min"),
        "ratio_max": (("equivalence", "ratio_max"), "collar_max"),
    },
    "kernel": {
        "comparison_ratio_min": (("comparison", "ratio_min"), "min"),
        "comparison_ratio_max": (("comparison", "ratio_max"), "max"),
        "log_gradient_constant": (("log_gradient_constant",), "constant"),
        "t_log_derivative_constant": (("t_log_derivative_constant",), "constant"),
    },
    "polar": {
        "jacobian_ratio_min": (("jacobian_ratio_min",), "min"),
        "jacobian_ratio_max": (("jacobian_ratio_max",), "max"),
        "pj_ratio_min": (("pj_ratio_min",), "min"),
        "pj_ratio_max": (("pj_ratio_max",), "max"),
    },
    "lemma6": {"sup_ratio": (("sup_ratio",), "constant")},
    "cheeger": {
        "global": (("global",), "constant"),
        "ball": (("ball",), "constant"),
        "complement": (("complement",), "constant"),
    },
    "li": {"constant": (("gradient_bound", "constant"), "constant")},
    "lse-poe": {
        "entropy_constant": (("entropy_constant",), "constant"),
        "variance_constant": (("variance_constant",), "constant"),
    },
}


def band_values(name: str, rep: VerificationReport) -> dict:
    """The report's value for each frozen key of suite `name`."""
    out = {}
    for key, (path, _) in FROZEN_BANDS[name].items():
        value = rep.stats
        for part in path:
            value = value[part]
        out[key] = value
    return out


def run_suite(name: str, cfg: RunConfig) -> VerificationReport:
    """Run one suite and gate its report against the group's frozen bands."""
    if name not in SUITE_RUNNERS:
        raise ValueError(f"unknown suite {name!r}")
    rep = SUITE_RUNNERS[name](cfg)
    frozen = cfg.frozen_for(name)
    if not frozen:
        rep.notes.append("no frozen bounds for this group; band checks skipped")
        return rep
    rep.frozen = dict(frozen)
    values = band_values(name, rep)
    for key, (_, kind) in FROZEN_BANDS[name].items():
        rep.require(
            _BAND_KINDS[kind](values[key], frozen[key]),
            f"{key} = {values[key]!r} left its {kind} band around the frozen {frozen[key]!r}",
        )
    return rep
