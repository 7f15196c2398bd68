"""The frozen-band table, the suite gate that applies it, and the freeze tool
that reads constants through it."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from nilheat import kernel as ker
from nilheat import semigroup as sg
from nilheat import suites
from nilheat.freeze import freeze_config
from nilheat.groups import GroupParams
from nilheat.reports import VerificationReport, load_frozen_bounds
from nilheat.suites import FROZEN_BANDS, SUITE_NAMES, SUITE_RUNNERS, RunConfig, config_from_dict, run_suite

H1 = GroupParams(1, (1,), (1.0,))


def _stats_with(name, values):
    """Report stats holding values[key] at each frozen key's stats path."""
    stats = {}
    for key, (path, _) in FROZEN_BANDS[name].items():
        node = stats
        for part in path[:-1]:
            node = node.setdefault(part, {})
        node[path[-1]] = values[key]
    return stats


def _gate_synthetic(monkeypatch, name, stats, table, group=H1):
    """run_suite on a stub runner whose report carries `stats` and passes."""
    monkeypatch.setitem(
        SUITE_RUNNERS, name, lambda cfg: VerificationReport(identifier=name, stats=stats, passed=True)
    )
    monkeypatch.setattr(suites, "load_frozen_bounds", lambda: table)
    return run_suite(name, RunConfig(group=group, seed=1))


def test_table_keys_match_shipped_bounds():
    shipped = load_frozen_bounds()
    assert set(FROZEN_BANDS) == set(SUITE_NAMES)
    for label, entries in shipped.items():
        for name, entry in entries.items():
            assert set(FROZEN_BANDS[name]) == set(entry), (label, name)


@pytest.mark.parametrize(
    "name, key, inside, outside",
    [
        ("li", "constant", 1.19, 1.21),  # +-20 percent
        ("lse-poe", "variance_constant", 0.81, 0.79),
        ("kernel", "comparison_ratio_min", 0.81, 0.79),  # 0.8 floor
        ("polar", "pj_ratio_max", 1.19, 1.21),  # 1.2 ceiling
        ("distance", "ratio_min", 0.91, 0.89),  # 0.9 / 1.1 collar
        ("distance", "ratio_max", 1.09, 1.11),
    ],
)
def test_gate_band(monkeypatch, name, key, inside, outside):
    frozen = {k: 1.0 for k in FROZEN_BANDS[name]}
    table = {H1.label(): {name: frozen}}
    ok = _gate_synthetic(monkeypatch, name, _stats_with(name, dict(frozen, **{key: inside})), table)
    assert ok.passed is True and ok.notes == []
    assert ok.frozen == frozen
    bad = _gate_synthetic(monkeypatch, name, _stats_with(name, dict(frozen, **{key: outside})), table)
    assert bad.passed is False
    assert len(bad.notes) == 1 and bad.notes[0].startswith(f"FAILED: {key} = ")


def test_gate_without_entry_notes_and_keeps_frozen_empty(monkeypatch):
    stats = _stats_with("lemma6", {"sup_ratio": 1e9})
    rep = _gate_synthetic(monkeypatch, "lemma6", stats, load_frozen_bounds(), GroupParams(1, (2,), (1.0,)))
    assert rep.passed is True
    assert rep.frozen == {}
    assert rep.notes == ["no frozen bounds for this group; band checks skipped"]


_SMALL_H1 = {
    "seed": 20250809,
    "group": {"l": 1, "k": [1], "a": [1.0]},
    "diffusion": {"paths": 500},
    "h_values": [0.5, 1.0],
    "sizes": {"family": 8, "li_points": 2, "ball_count": 2000, "distance_points": 2000},
}


@pytest.mark.parametrize("name", ["cheeger", "li", "lse-poe"])
def test_semigroup_reports_carry_their_frozen_entry(name):
    cfg = config_from_dict(dict(_SMALL_H1, suites=[name]))
    rep = run_suite(name, cfg)
    assert rep.frozen == load_frozen_bounds()[H1.label()][name]


def test_freeze_reads_the_ungated_run(monkeypatch):
    # a distance ratio_max moved far below the h1 value fails the gate, but
    # re-baselining records the run's own extremes instead of refusing
    shipped = load_frozen_bounds()
    moved = json.loads(json.dumps(shipped))
    moved[H1.label()]["distance"]["ratio_max"] = 2.0
    monkeypatch.setattr(suites, "load_frozen_bounds", lambda: moved)
    cfg = config_from_dict(dict(_SMALL_H1, suites=["distance"]))
    gated = run_suite("distance", cfg)
    assert gated.passed is False
    assert any(note.startswith("FAILED: ratio_max = ") for note in gated.notes)
    assert freeze_config(cfg) == {"distance": gated.stats["equivalence"]}


def test_li_sampler_calls_on_h1(monkeypatch):
    # four h values (the h1 config's) + mass + one commutation draw + three
    # semigroup-property draws + two holder h values
    calls = []
    draw = sg.sample_heat_points

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(sg, "sample_heat_points", counted)
    cfg = config_from_dict(dict(_SMALL_H1, h_values=[0.25, 0.5, 1.0, 2.0], suites=["li"]))
    SUITE_RUNNERS["li"](cfg)
    assert len(calls) == 11


def _small_noniso_li():
    return config_from_dict(dict(_SMALL_H1, group={"l": 2, "k": [1, 2], "a": [0.5, 1.0]}, suites=["li"]))


def test_li_semigroup_property_reads_sample_rows_on_noniso():
    # on dim 7 a narrow member can hold none of the sample rows, and a pull
    # over no rows reads 0.0 and cannot fail
    rep = SUITE_RUNNERS["li"](_small_noniso_li())
    rows = rep.stats["semigroup_property_rows"]
    assert set(rows) == {"two_stage", "one_stage"}
    assert min(rows.values()) > 0
    assert rep.stats["semigroup_property_pull"] > 0.0
    assert rep.passed


def test_li_semigroup_property_fails_without_sample_rows(monkeypatch):
    family = suites.standard_family

    def far_member_4(params, count):
        fam = family(params, count=count)
        fam[4] = dataclasses.replace(fam[4], center=fam[4].center + 1e3)
        return fam

    monkeypatch.setattr(suites, "standard_family", far_member_4)
    rep = SUITE_RUNNERS["li"](_small_noniso_li())
    assert rep.stats["semigroup_property_rows"] == {"two_stage": 0, "one_stage": 0}
    assert rep.passed is False
    assert "FAILED: no sample row inside the semigroup-property test function" in rep.notes


def test_kernel_report_keeps_the_comparison_failure_note(monkeypatch):
    def failing(params, cloud, spec):
        rep = VerificationReport(identifier="kernel-comparison")
        rep.require(False, "comparison ratio below the floor")
        return rep

    monkeypatch.setattr(ker, "check_kernel_comparison", failing)
    sizes = dict(_SMALL_H1["sizes"], kernel_cloud=200, scaling_points=100, symmetry_points=20)
    rep = SUITE_RUNNERS["kernel"](config_from_dict(dict(_SMALL_H1, sizes=sizes, suites=["kernel"])))
    assert rep.passed is False
    assert rep.notes == [
        "FAILED: two-sided comparison report failed",
        "FAILED: comparison ratio below the floor",
    ]


def test_require_report_keeps_only_failed_notes():
    sub = VerificationReport(identifier="sub", notes=["a remark"], passed=True)
    rep = VerificationReport(identifier="top")
    assert rep.require_report(sub, "sub-check failed") is True
    assert rep.notes == []
    sub.require(False, "why")
    assert rep.require_report(sub, "sub-check failed") is False
    assert rep.notes == ["FAILED: sub-check failed", "FAILED: why"]


def test_config_keys_left_out_keep_the_run_config_defaults():
    cfg = config_from_dict({"seed": 1, "group": {"l": 1, "k": [1], "a": [1.0]}})
    assert cfg == RunConfig(group=H1, seed=1)


def test_kernel_suite_takes_few_trapezoid_passes(monkeypatch):
    # the scaling law's left side is one call over the per-point h, not one
    # call per point (about 1,000 passes before)
    calls = []
    trapezoid = ker._trapezoid

    def counted(*args, **kwargs):
        calls.append(args[1].shape[0])
        return trapezoid(*args, **kwargs)

    monkeypatch.setattr(ker, "_trapezoid", counted)
    with open(Path(__file__).resolve().parents[1] / "configs" / "h1.json") as fh:
        cfg = config_from_dict(json.load(fh))
    assert suites.suite_kernel(cfg).passed
    assert len(calls) <= 20


# k and a of the groups the kernel suite's t-Fourier identity is checked on
_KERNEL_GROUPS = {
    "h1": ([1], [1.0]),
    "k2": ([2], [1.0]),
    "noniso": ([1, 2], [0.5, 1.0]),
    "three": ([2, 1, 1], [0.3, 0.6, 1.0]),
}
_POINTS_NOTE = "FAILED: t-Fourier identity off beyond 1e-10 on the points engine"


def _small_kernel_run(group):
    """The ungated kernel suite on a small cloud of the named group."""
    k, a = _KERNEL_GROUPS[group]
    cfg = config_from_dict(
        {
            "seed": 20250809,
            "group": {"l": len(k), "k": k, "a": a},
            "sizes": {"scaling_points": 20, "symmetry_points": 20, "kernel_cloud": 40},
        }
    )
    return SUITE_RUNNERS["kernel"](cfg)


@pytest.mark.parametrize("group", sorted(_KERNEL_GROUPS))
def test_kernel_suite_checks_the_t_fourier_identity(group):
    # int p_1(z, t) cos(mu t/4) dt = (4 pi)^-n E(mu) row by row; mu = 0 is
    # the unit-mass t-marginal
    rep = _small_kernel_run(group)
    assert rep.passed, rep.notes
    assert rep.stats["t_fourier_points_max"] <= 1e-10
    assert "t_fourier_grid_max" not in rep.stats
    assert "mass_deviation" not in rep.stats


@pytest.mark.parametrize("group", ["h1", "noniso"])
def test_kernel_suite_fails_a_dilation_invariant_bias(group, monkeypatch):
    # the pointwise value times 1 + 1e-6 tau/(tau + sum Z): even in t and
    # unchanged by dilation, so the scaling law cannot see it
    line_sums = ker._line_sums

    def biased(params, Z, tau, *args, **kwargs):
        out = line_sums(params, Z, tau, *args, **kwargs)
        # tau > 0 only: at the origin the share is 0/0
        share = np.divide(tau, tau + Z.sum(axis=-1), out=np.zeros_like(tau), where=tau > 0)
        out["val"] = out["val"] * (1.0 + 1e-6 * share)
        return out

    monkeypatch.setattr(ker, "_line_sums", biased)
    rep = _small_kernel_run(group)
    assert rep.passed is False
    assert rep.notes == [_POINTS_NOTE]


@pytest.mark.parametrize("group", ["h1", "noniso"])
def test_kernel_suite_fails_an_envelope_table_error(group, monkeypatch):
    # x coth x off by 1e-7 in the node tables; the identity's closed form
    # does not read them, so the error cannot cancel
    line_tables = ker._line_tables

    def off(params, lam):
        logw, xc = line_tables(params, lam)
        return logw, xc * (1.0 + 1e-7)

    monkeypatch.setattr(ker, "_line_tables", off)
    rep = _small_kernel_run(group)
    assert rep.passed is False
    assert rep.notes == [_POINTS_NOTE]
