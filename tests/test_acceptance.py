"""Acceptance criteria, one test per criterion.

Each test prints a pass/fail line with its headline numbers and enforces
the stated tolerances.  Criteria 2-5 run the full library suites on the
shipped configurations (first Heisenberg group and the two-block
nonisotropic group); criterion 6 runs the inequality suites; criterion 7
reruns representative suites and compares report bytes.  The ungated
three-block config runs every suite.
"""

import json
import math
import time

import numpy as np
import pytest

from nilheat.groups import GroupParams, horizontal_components, multiply_flat
from nilheat.reports import dumps_report
from nilheat.sampling import philox
from nilheat.suites import SUITE_NAMES, RunConfig, config_from_dict, run_suite
from nilheat.testfuncs import standard_family

GROUP_SETS = [
    GroupParams(1, (1,), (1.0,)),
    GroupParams(1, (2,), (1.0,)),
    GroupParams(2, (1, 2), (0.5, 1.0)),
]


def _load_cfg(path):
    with open(path) as fh:
        return config_from_dict(json.load(fh))


@pytest.fixture(scope="module")
def cfg_h1():
    return _load_cfg("configs/h1.json")


@pytest.fixture(scope="module")
def cfg_noniso():
    return _load_cfg("configs/noniso.json")


def _report_line(name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")


def test_criterion_1_group_measure_suite():
    t0 = time.time()
    cases = 10000
    for params in GROUP_SETS:
        rng = philox(20250809, 100 + params.n)
        A = rng.uniform(-2, 2, size=(cases, params.dim))
        B = rng.uniform(-2, 2, size=(cases, params.dim))
        C = rng.uniform(-2, 2, size=(cases, params.dim))
        assoc = multiply_flat(params, multiply_flat(params, A, B), C) - multiply_flat(
            params, A, multiply_flat(params, B, C)
        )
        assert np.max(np.abs(assoc)) <= 1e-12
        assert np.max(np.abs(multiply_flat(params, A, -A))) <= 1e-12
        # dilation automorphism
        r = 1.7
        lhs = multiply_flat(params, A, B)
        lhs = np.concatenate([r * lhs[:, :-1], r * r * lhs[:, -1:]], axis=1)
        rA = np.concatenate([r * A[:, :-1], r * r * A[:, -1:]], axis=1)
        rB = np.concatenate([r * B[:, :-1], r * r * B[:, -1:]], axis=1)
        assert np.max(np.abs(lhs - multiply_flat(params, rA, rB))) <= 1e-11

        # field invariance by finite differences, vectorized over the cases
        f = standard_family(params, count=3, seed=77)[2]
        g0 = rng.uniform(-0.6, 0.6, size=(cases, params.dim))
        base = f.center + rng.uniform(-0.4, 0.4, size=(cases, params.dim)) * f.scale
        g = multiply_flat(params, -g0, base)
        eps = 1e-5
        step = np.zeros(params.dim)
        step[0] = eps
        pts = multiply_flat(params, g0, g)
        lhs_field = horizontal_components(params, f.gradient(pts), pts, "left")[:, 0]
        up = f.value(multiply_flat(params, g0, multiply_flat(params, g, step)))
        dn = f.value(multiply_flat(params, g0, multiply_flat(params, g, -step)))
        fd = (up - dn) / (2 * eps)
        assert np.max(np.abs(lhs_field - fd) / (1 + np.abs(fd))) <= 1e-5
        # right-field invariance
        g_r = multiply_flat(params, base, -g0)
        pts_r = multiply_flat(params, g_r, g0)
        rhs_field = horizontal_components(params, f.gradient(pts_r), pts_r, "right")[:, 0]
        up = f.value(multiply_flat(params, multiply_flat(params, step, g_r), g0))
        dn = f.value(multiply_flat(params, multiply_flat(params, -step, g_r), g0))
        fd = (up - dn) / (2 * eps)
        assert np.max(np.abs(rhs_field - fd) / (1 + np.abs(fd))) <= 1e-5

        # measure invariance within 3 standard errors
        g0s = rng.uniform(-0.5, 0.5, params.dim)
        lo, hi = f.support_box()
        pad = float(np.abs(g0s).sum() + np.abs(lo).max() + np.abs(hi).max() + 2.0)
        pts = rng.uniform(-pad, pad, size=(cases, params.dim))
        v1 = f.value(pts)
        v2 = f.value(multiply_flat(params, g0s, pts))
        se = math.sqrt(v1.var() / cases + v2.var() / cases)
        assert abs(float(v1.mean() - v2.mean())) <= 3.0 * se
    elapsed = time.time() - t0
    _report_line("criterion 1 group/measure", elapsed <= 60, f"{len(GROUP_SETS)} groups x {cases} cases", elapsed, 60)
    assert elapsed <= 60


def test_criterion_2_distance_suite(cfg_h1, cfg_noniso):
    t0 = time.time()
    details = []
    for cfg in (cfg_h1, cfg_noniso):
        rep = run_suite("distance", cfg)
        details.append(f"{cfg.group.label()}: ratio [{rep.stats['equivalence']['ratio_min']:.4f}, "
                       f"{rep.stats['equivalence']['ratio_max']:.4f}]")
        assert rep.passed, rep.notes
        assert rep.stats["residual_max_scaled"] <= 1e-12
        assert rep.stats["form_agreement_max"] <= 1e-10
        assert rep.stats["homogeneity_max"] <= 1e-10
        assert rep.stats["z_slice_max"] <= 1e-10
        assert rep.stats["t_axis_max"] <= 1e-10
        assert rep.stats["equivalence"]["ratio_min"] > 0
        assert rep.frozen or not cfg.frozen_for("distance")
    elapsed = time.time() - t0
    _report_line("criterion 2 distance", elapsed <= 60, "; ".join(details), elapsed, 60)
    assert elapsed <= 60


def test_criterion_3_kernel_suite(cfg_h1, cfg_noniso):
    t0 = time.time()
    rep_h1 = run_suite("kernel", cfg_h1)
    assert rep_h1.passed, rep_h1.notes
    assert rep_h1.stats["origin_abs_error"] <= 1e-6
    assert rep_h1.stats["scaling_max_deviation"] <= 1e-8
    assert rep_h1.stats["scaling_cases"] >= 900
    assert rep_h1.stats["inversion_symmetry_max"] <= 1e-8
    assert rep_h1.stats["rotation_identity_max"] <= 1e-8
    rep_n = run_suite("kernel", cfg_noniso)
    assert rep_n.passed, rep_n.notes
    elapsed = time.time() - t0
    _report_line(
        "criterion 3 kernel",
        elapsed <= 300,
        f"anchor err {rep_h1.stats['origin_abs_error']:.2e}, "
        f"c3 {rep_h1.stats['log_gradient_constant']:.3f}, "
        f"c4 {rep_h1.stats['t_log_derivative_constant']:.3f}",
        elapsed,
        300,
    )
    assert elapsed <= 300


def test_criterion_4_polar_suite(cfg_h1, cfg_noniso):
    t0 = time.time()
    for cfg in (cfg_h1, cfg_noniso):
        rep = run_suite("polar", cfg)
        assert rep.passed, rep.notes
        assert rep.stats["chart_roundtrip_max"] <= 1e-10
        assert rep.stats["angle_roundtrip_max"] <= 1e-10
        assert rep.stats["closed_form_vs_lu_max"] <= 1e-9
        assert rep.stats["recursion_vs_lu_max"] <= 1e-9
        assert rep.stats["distance_vs_speed_max"] <= 1e-8
        assert rep.stats["horizontal_rays"]["speed_rel_error_max"] <= 1e-8
        assert rep.stats["change_of_variables"]["rel_difference"] <= 1e-4
    elapsed = time.time() - t0
    _report_line("criterion 4 polar", elapsed <= 120, "both groups", elapsed, 120)
    assert elapsed <= 120


def test_criterion_5_ray_integral_suite(cfg_h1, cfg_noniso):
    t0 = time.time()
    details = []
    for cfg in (cfg_h1, cfg_noniso):
        rep = run_suite("lemma6", cfg)
        assert rep.passed, rep.notes
        counts = rep.stats["region_counts"]
        assert sum(counts.values()) >= 1000
        assert all(v > 0 for v in counts.values())
        details.append(f"{cfg.group.label()}: sup {rep.stats['sup_ratio']:.3f} over {counts}")
    elapsed = time.time() - t0
    _report_line("criterion 5 ray integral", elapsed <= 300, "; ".join(details), elapsed, 300)
    assert elapsed <= 300


def test_criterion_6_inequality_suite(cfg_h1):
    t0 = time.time()
    assert 10000 <= cfg_h1.diffusion_paths <= 100000
    li = run_suite("li", cfg_h1)
    assert li.passed, li.notes
    assert abs(li.stats["markov_value"] - 1.0) <= 1e-3
    assert li.stats["commutation_worst"] <= 1e-3
    assert li.stats["integration_by_parts_worst"] <= 1e-3
    cheeger = run_suite("cheeger", cfg_h1)
    assert cheeger.passed, cheeger.notes
    lse = run_suite("lse-poe", cfg_h1)
    assert lse.passed, lse.notes
    elapsed = time.time() - t0
    _report_line(
        "criterion 6 inequalities",
        elapsed <= 900,
        f"K {li.stats['gradient_bound']['constant']:.3f}, "
        f"K' {lse.stats['entropy_constant']:.3f}, K'' {lse.stats['variance_constant']:.3f}, "
        f"cheeger {cheeger.stats['global']:.3f}",
        elapsed,
        900,
    )
    assert elapsed <= 900


def test_criterion_7_determinism(cfg_h1):
    t0 = time.time()
    small = RunConfig(
        group=cfg_h1.group,
        seed=cfg_h1.seed,
        quadrature=cfg_h1.quadrature,
        diffusion_paths=8000,
        h_values=(0.5, 1.0),
        sizes={"distance_points": 4000, "family": 8, "li_points": 4, "lemma6_points": 60,
               "ball_count": 40000},
    )
    for name in ("distance", "lemma6", "li"):
        a = dumps_report(run_suite(name, small))
        b = dumps_report(run_suite(name, small))
        assert a == b, f"suite {name} is not rerun-deterministic"
    elapsed = time.time() - t0
    _report_line("criterion 7 determinism", elapsed <= 300, "distance/lemma6/li byte-identical", elapsed, 300)
    assert elapsed <= 300


def test_three_block_config_runs_every_suite():
    # k = (2, 1, 1) has no frozen entry, so each verdict is its analytic
    # checks; the kernel suite's checks do not grow with the number of blocks
    cfg = _load_cfg("configs/three.json")
    assert cfg.group == GroupParams(3, (2, 1, 1), (0.3, 0.6, 1.0))
    assert cfg.suites == SUITE_NAMES
    for name in cfg.suites:
        t0 = time.time()
        rep = run_suite(name, cfg)
        elapsed = time.time() - t0
        assert rep.passed, (name, rep.notes)
        assert rep.notes == ["no frozen bounds for this group; band checks skipped"]
        if name == "kernel":
            _report_line("three-block kernel", elapsed < 10, "analytic checks", elapsed, 10)
            assert elapsed < 10
