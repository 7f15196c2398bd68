"""Report serialization, CLI commands, exit codes, export formats."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from nilheat.reports import (
    VerificationReport,
    dumps_report,
    load_frozen_bounds,
    within_band,
    write_csv,
)

CONFIG_H1 = {
    "seed": 4242,
    "group": {"l": 1, "k": [1], "a": [1.0]},
    "suites": ["distance"],
    "diffusion": {"steps": 120, "paths": 6000},
    "sizes": {"distance_points": 3000},
}


def _run_cli(args, cwd, env):
    return subprocess.run(
        [sys.executable, "-m", "nilheat", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def _assert_usage_error(r):
    assert r.returncode == 2, r.stderr
    assert "error:" in r.stderr
    assert "Traceback" not in r.stderr, r.stderr


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG_H1))
    return str(path)


def test_report_serialization_deterministic():
    rep = VerificationReport(
        identifier="demo",
        config={"b": 2, "a": 1},
        seed=7,
        stats={"x": 0.1 + 0.2, "arr": np.array([1.0, 2.0])},
        constant=np.float64(1.5),
    )
    rep.require(True, "fine")
    s1 = dumps_report(rep)
    s2 = dumps_report(rep)
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed["stats"]["arr"] == [1.0, 2.0]
    assert parsed["passed"] is True
    rep.require(False, "broken now")
    assert rep.passed is False
    assert any("broken" in n for n in rep.notes)


def test_within_band():
    assert within_band(1.0, 1.1)
    assert not within_band(1.0, 1.5)
    assert not within_band(float("nan"), 1.0)
    assert not within_band(1.0, float("inf"))


def test_write_csv_formats_numpy(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [[np.float64(0.5), np.int64(3)], [1.0 / 3.0, "x"]])
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["a", "b"]
    assert rows[1] == ["0.5", "3"]
    assert float(rows[2][0]) == pytest.approx(1.0 / 3.0, abs=0)


def test_frozen_bounds_shipped():
    table = load_frozen_bounds()
    assert "l1_k1_a1.0" in table
    assert "li" in table["l1_k1_a1.0"]
    assert table["l1_k1_a1.0"]["li"]["constant"] > 0


def test_cli_usage_errors(tmp_path, config_path, cli_env):
    # no config
    r = _run_cli(["verify", "distance"], tmp_path, cli_env)
    _assert_usage_error(r)
    # unknown suite
    r = _run_cli(["--config", config_path, "verify", "bogus"], tmp_path, cli_env)
    _assert_usage_error(r)
    # empty suite selection
    empty = tmp_path / "empty.json"
    cfg = dict(CONFIG_H1)
    cfg["suites"] = []
    empty.write_text(json.dumps(cfg))
    r = _run_cli(["--config", str(empty), "verify"], tmp_path, cli_env)
    _assert_usage_error(r)
    # invalid group (a_l != 1)
    bad = tmp_path / "bad.json"
    cfg = dict(CONFIG_H1)
    cfg["group"] = {"l": 1, "k": [1], "a": [0.5]}
    bad.write_text(json.dumps(cfg))
    r = _run_cli(["--config", str(bad), "verify", "distance"], tmp_path, cli_env)
    _assert_usage_error(r)
    # missing seed
    noseed = tmp_path / "noseed.json"
    cfg = {k: v for k, v in CONFIG_H1.items() if k != "seed"}
    noseed.write_text(json.dumps(cfg))
    r = _run_cli(["--config", str(noseed), "verify", "distance"], tmp_path, cli_env)
    _assert_usage_error(r)


def test_cli_verify_roundtrip_and_determinism(tmp_path, config_path, cli_env):
    r1 = _run_cli(
        ["--config", config_path, "verify", "distance", "--output-dir", str(tmp_path / "a")],
        tmp_path,
        cli_env,
    )
    assert r1.returncode == 0, r1.stderr
    r2 = _run_cli(
        ["--config", config_path, "verify", "distance", "--output-dir", str(tmp_path / "b")],
        tmp_path,
        cli_env,
    )
    assert r2.returncode == 0
    a = (tmp_path / "a" / "distance.json").read_bytes()
    b = (tmp_path / "b" / "distance.json").read_bytes()
    assert a == b
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["suites"]["distance"]["passed"] is True
    # a different seed changes the cloud
    r3 = _run_cli(
        [
            "--config",
            config_path,
            "--seed",
            "777",
            "verify",
            "distance",
            "--output-dir",
            str(tmp_path / "c"),
        ],
        tmp_path,
        cli_env,
    )
    assert r3.returncode == 0
    c = (tmp_path / "c" / "distance.json").read_bytes()
    assert c != a


def test_cli_eval_kernel_anchor(tmp_path, config_path, cli_env):
    r = _run_cli(["--config", config_path, "eval", "kernel", "0,0,0", "--h", "1.0"], tmp_path, cli_env)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert abs(out["value"] - 1.0 / 64.0) <= 1e-6
    r = _run_cli(["--config", config_path, "eval", "distance", "0.6,0.8,0"], tmp_path, cli_env)
    out = json.loads(r.stdout)
    assert out["distance"] == pytest.approx(1.0, rel=1e-10)
    # wrong arity
    r = _run_cli(["--config", config_path, "eval", "kernel", "1,2"], tmp_path, cli_env)
    assert r.returncode == 2


def test_cli_plot_outputs(tmp_path, config_path, cli_env):
    sphere = tmp_path / "sphere.csv"
    r = _run_cli(
        ["--config", config_path, "plot", "distance-sphere", "--out", str(sphere), "--points", "40"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0
    rows = list(csv.DictReader(open(sphere)))
    assert len(rows) == 40
    assert all(abs(float(row["distance"]) - 1.0) <= 1e-6 for row in rows)

    sl = tmp_path / "slice.csv"
    r = _run_cli(
        [
            "--config",
            config_path,
            "plot",
            "kernel-slice",
            "--out",
            str(sl),
            "--points",
            "21",
            "--extent",
            "4.0",
        ],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0
    rows = list(csv.DictReader(open(sl)))
    vals = [float(row["value"]) for row in rows]
    ts = [float(row["t"]) for row in rows]
    # even in t
    for i in range(len(rows) // 2):
        assert vals[i] == pytest.approx(vals[-1 - i], rel=1e-10)
        assert ts[i] == pytest.approx(-ts[-1 - i], abs=1e-12)

    rc = tmp_path / "cloud.csv"
    r = _run_cli(
        ["--config", config_path, "plot", "ratio-cloud", "--out", str(rc), "--points", "10"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0
    rows = list(csv.DictReader(open(rc)))
    assert len(rows) == 10
    frozen = load_frozen_bounds()["l1_k1_a1.0"]["lemma6"]["sup_ratio"]
    assert all(0 < float(row["ratio"]) <= frozen * 1.2 for row in rows)
    assert {row["region"] for row in rows} <= {"R1", "R2", "R3"}


def test_config_rejects_bad_quadrature(tmp_path, cli_env):
    # negative, unknown key, wrongly typed, not finite, not an object
    for quad in ({"tol": -1.0}, {"tolerance": 1e-9}, {"tol": "abc"}, {"tol": math.nan}, 5):
        cfg = dict(CONFIG_H1)
        cfg["quadrature"] = quad
        path = tmp_path / "badq.json"
        path.write_text(json.dumps(cfg))
        r = _run_cli(["--config", str(path), "verify", "distance"], tmp_path, cli_env)
        _assert_usage_error(r)


def _assert_config_rejected(tmp_path, cli_env, **changes):
    # the config is refused before any suite runs or any report is written
    cfg = dict(CONFIG_H1, **changes)
    path = tmp_path / "badcfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    r = _run_cli(["--config", str(path), "verify", "distance", "--output-dir", str(out)], tmp_path, cli_env)
    _assert_usage_error(r)
    assert not out.exists()


def test_config_rejects_malformed_group(tmp_path, cli_env):
    for group in ({"l": 1, "k": 1, "a": [1.0]}, {"l": 1, "k": [1], "a": 1.0}):
        _assert_config_rejected(tmp_path, cli_env, group=group)


def test_config_rejects_unknown_key(tmp_path, cli_env):
    _assert_config_rejected(tmp_path, cli_env, diffusoin={"steps": 10})


def test_config_rejects_unknown_sizes_key(tmp_path, cli_env):
    for sizes in ({"distance_pionts": 3000}, [3000]):
        _assert_config_rejected(tmp_path, cli_env, sizes=sizes)


def test_config_rejects_unknown_diffusion_key(tmp_path, cli_env):
    _assert_config_rejected(tmp_path, cli_env, diffusion={"steps": 120, "path": 6000})


def test_config_rejects_non_object(tmp_path, cli_env):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([CONFIG_H1]))
    r = _run_cli(["--config", str(path), "--seed", "1", "verify", "distance"], tmp_path, cli_env)
    _assert_usage_error(r)


def test_config_rejects_bad_h_values(tmp_path, cli_env):
    for h in ("abc", [], [0.5, -1.0], [0.5, 0.0], [math.inf], [True], ["0.5"], 0.5):
        _assert_config_rejected(tmp_path, cli_env, h_values=h)
