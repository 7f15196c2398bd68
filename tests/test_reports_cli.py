"""Report serialization, CLI commands, exit codes, export formats, bench tracer."""

import csv
import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nilheat.cli import build_parser
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
    "diffusion": {"paths": 6000},
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
    # a plot with no points
    for quantity in ("distance-sphere", "ratio-cloud", "kernel-slice"):
        out = tmp_path / f"{quantity}.csv"
        r = _run_cli(
            ["--config", config_path, "plot", quantity, "--out", str(out), "--points", "0"], tmp_path, cli_env
        )
        _assert_usage_error(r)
        assert not out.exists()


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


def test_cli_plot_rejects_a_bad_extent_or_h(tmp_path, config_path, cli_env):
    # the slice's t range and time are finite positive numbers; each bad value
    # is a usage error naming its flag, with no numpy warning on the way
    out = tmp_path / "slice.csv"
    for flag, value in [("--extent", v) for v in ("inf", "nan", "-4", "0", "x")] + [("--h", "-1")]:
        r = _run_cli(
            ["--config", config_path, "plot", "kernel-slice", "--out", str(out), flag, value],
            tmp_path,
            cli_env,
        )
        _assert_usage_error(r)
        assert f"argument {flag}: expected a finite positive number" in r.stderr
        assert "Warning" not in r.stderr
        assert not out.exists()


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


def test_cli_eval_rejects_non_finite_input(tmp_path, config_path, cli_env):
    for args in (
        ["eval", "kernel", "0,0,0", "--h", "nan"],
        ["eval", "kernel", "0,0,0", "--h", "inf"],
        ["eval", "kernel", "0,0,0", "--h", "0"],
        ["eval", "kernel", "0,nan,0"],
        ["eval", "distance", "0,nan,0"],
        ["eval", "distance", "0,0,inf"],
        # finite coordinates whose block norms overflow
        ["eval", "kernel", "1e200,0,0"],
        ["eval", "distance", "1e200,0,0"],
        # a finite point whose distance overflows
        ["eval", "distance", "0,0,1e308"],
        # a finite h whose prefactor (4 pi h)^-2 overflows
        ["eval", "kernel", "0.5,0,0", "--h", "1e-300"],
        ["eval", "kernel", "0,0,0", "--h", "1e-300"],
    ):
        r = _run_cli(["--config", config_path, *args], tmp_path, cli_env)
        _assert_usage_error(r)
        assert "RuntimeWarning" not in r.stderr, r.stderr
        assert r.stdout == ""


def test_cli_eval_rejects_overflowing_tau(tmp_path, config_path, cli_env):
    # the prefactor at h = 1e-150 is finite, but tau = |t|/4h is not
    r = _run_cli(["--config", config_path, "eval", "kernel", "0,0,1e300", "--h", "1e-150"], tmp_path, cli_env)
    _assert_usage_error(r)
    assert "tau = |t|/4h overflows" in r.stderr, r.stderr
    assert "RuntimeWarning" not in r.stderr, r.stderr
    assert r.stdout == ""


def test_cli_eval_quadrature_failure_is_an_error_line(tmp_path, config_path, cli_env):
    # a cutoff cap too small for the point, or a |t| whose step count
    # exceeds the node cap: exit 1, one error line
    small_cap = _write_config(tmp_path, quadrature={"lambda_max": 1.0})
    for args in (
        ["--config", small_cap, "eval", "kernel", "0.3,0,1.5", "--h", "0.25"],
        ["--config", config_path, "eval", "kernel", "0,0,1e308"],
        ["--config", config_path, "eval", "kernel", "0,0,1e200"],
        # a tiny h with a finite prefactor: the quadrature, not the input, fails
        ["--config", config_path, "eval", "kernel", "0.5,0,0", "--h", "1e-100"],
    ):
        r = _run_cli(args, tmp_path, cli_env)
        assert r.returncode == 1, r.stderr
        assert "error:" in r.stderr and "quadrature" in r.stderr
        assert r.stderr.count("\n") == 1, r.stderr
        assert "Traceback" not in r.stderr and "Warning" not in r.stderr, r.stderr
        assert r.stdout == ""


def test_cli_eval_overflowing_grid_rung_is_a_quadrature_error(tmp_path, config_path, cli_env):
    # |z|^2 and t are finite, but the step count they set overflows: exit 1
    # and one error line, with warnings raised as errors in the child
    env = dict(cli_env, PYTHONWARNINGS="error")
    r = _run_cli(["--config", config_path, "eval", "kernel", "3e153,0,1e307"], tmp_path, env)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error: quadrature") and r.stderr.count("\n") == 1, r.stderr
    assert r.stdout == ""


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
    assert list(rows[0]) == ["u_re_1_1", "u_im_1_1", "eta", "U", "region", "p", "J", "ratio"]
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


def _write_config(tmp_path, **changes):
    path = tmp_path / "badcfg.json"
    path.write_text(json.dumps(dict(CONFIG_H1, **changes)))
    return str(path)


def _assert_config_rejected(tmp_path, cli_env, **changes):
    # the config is refused before any suite runs or any report is written
    path = _write_config(tmp_path, **changes)
    out = tmp_path / "out"
    r = _run_cli(["--config", path, "verify", "distance", "--output-dir", str(out)], tmp_path, cli_env)
    _assert_usage_error(r)
    assert not out.exists()


def test_config_rejects_malformed_group(tmp_path, cli_env):
    for group in ({"l": 1, "k": 1, "a": [1.0]}, {"l": 1, "k": [1], "a": 1.0}):
        _assert_config_rejected(tmp_path, cli_env, group=group)


def test_config_rejects_unknown_group_key(tmp_path, cli_env):
    _assert_config_rejected(tmp_path, cli_env, group={"l": 1, "k": [1], "a": [1.0], "x": 1})


def test_config_rejects_bad_output_dir(tmp_path, cli_env):
    # the config's own output_dir, with no --output-dir to override it
    for output_dir in (5, None, ""):
        path = _write_config(tmp_path, output_dir=output_dir)
        r = _run_cli(["--config", path, "verify", "distance"], tmp_path, cli_env)
        _assert_usage_error(r)
        assert "output_dir" in r.stderr, r.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["badcfg.json"]


def test_config_rejects_sparse_matrices_size(tmp_path, cli_env):
    # the polar suite checks the determinant recursion on its chart
    # Jacobians; the random-matrix count it once read is an unknown key
    _assert_config_rejected(tmp_path, cli_env, sizes={"sparse_matrices": 1000})


def test_empty_ball_sample_is_a_usage_error(tmp_path, cli_env):
    # no draw of one lands in the ball: an error line, not a ZeroDivisionError
    path = _write_config(tmp_path, seed=1, sizes={"ball_count": 1})
    out = tmp_path / "out"
    r = _run_cli(["--config", path, "verify", "cheeger", "--output-dir", str(out)], tmp_path, cli_env)
    _assert_usage_error(r)
    assert "none of 1 draws" in r.stderr, r.stderr


def test_config_rejects_suites_that_are_not_a_list(tmp_path, cli_env):
    # a bare string is not read letter by letter, and no TypeError escapes
    for suites in (5, None, "kernel"):
        path = _write_config(tmp_path, suites=suites)
        out = tmp_path / "out"
        r = _run_cli(["--config", path, "verify", "--output-dir", str(out)], tmp_path, cli_env)
        _assert_usage_error(r)
        assert "suites must be a list" in r.stderr, r.stderr
        assert not out.exists()


def test_config_path_that_is_a_directory(tmp_path, cli_env):
    r = _run_cli(["--config", str(tmp_path), "verify", "distance"], tmp_path, cli_env)
    _assert_usage_error(r)


def test_output_dir_that_is_a_file(tmp_path, config_path, cli_env):
    taken = tmp_path / "taken"
    taken.write_text("")
    r = _run_cli(["--config", config_path, "verify", "distance", "--output-dir", str(taken)], tmp_path, cli_env)
    _assert_usage_error(r)
    assert taken.read_text() == ""


def test_config_rejects_unknown_key(tmp_path, cli_env):
    _assert_config_rejected(tmp_path, cli_env, diffusoin={"steps": 10})


def test_config_rejects_unknown_sizes_key(tmp_path, cli_env):
    for sizes in ({"distance_pionts": 3000}, [3000]):
        _assert_config_rejected(tmp_path, cli_env, sizes=sizes)


def test_config_rejects_unknown_diffusion_key(tmp_path, cli_env):
    _assert_config_rejected(tmp_path, cli_env, diffusion={"path": 6000})


def test_config_rejects_non_object(tmp_path, cli_env):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([CONFIG_H1]))
    r = _run_cli(["--config", str(path), "--seed", "1", "verify", "distance"], tmp_path, cli_env)
    _assert_usage_error(r)


def test_config_rejects_bad_h_values(tmp_path, cli_env):
    for h in ("abc", [], [0.5, -1.0], [0.5, 0.0], [math.inf], [True], ["0.5"], 0.5):
        _assert_config_rejected(tmp_path, cli_env, h_values=h)


# 10**400 is a valid JSON integer that no float can hold; 1e400 parses to inf
_HUGE = 10**400


def test_config_rejects_huge_h_values(tmp_path, cli_env):
    _assert_config_rejected(tmp_path, cli_env, h_values=[0.5, _HUGE])


def test_config_rejects_huge_quadrature_tol(tmp_path, cli_env):
    _assert_config_rejected(tmp_path, cli_env, quadrature={"tol": _HUGE})


def test_config_rejects_huge_group_numbers(tmp_path, cli_env):
    for group in (
        {"l": 1, "k": [1], "a": [_HUGE]},
        {"l": math.inf, "k": [1], "a": [1.0]},
        {"l": 1, "k": [math.inf], "a": [1.0]},
    ):
        _assert_config_rejected(tmp_path, cli_env, group=group)


def test_config_rejects_bad_diffusion_counts(tmp_path, cli_env):
    # non-integral, zero, a bool and a string
    for diffusion in ({"paths": 1.5}, {"paths": 0}, {"paths": True}, {"paths": "6000"}):
        _assert_config_rejected(tmp_path, cli_env, diffusion=diffusion)


def test_config_rejects_bad_sizes_counts(tmp_path, cli_env):
    for sizes in ({"distance_points": -5}, {"distance_points": 2.5}, {"ball_count": 0}, {"family": True}):
        _assert_config_rejected(tmp_path, cli_env, sizes=sizes)


def test_config_rejects_fractional_seed_and_small_family(tmp_path, cli_env):
    # a fractional seed is not truncated, and the semigroup suites pick family
    # members 2, 4 and 6, so a smaller family is refused before any suite runs
    for changes, key in (
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"sizes": {"family": 4}}, "sizes family"),
        ({"sizes": {"family": 6}}, "sizes family"),
    ):
        path = _write_config(tmp_path, **changes)
        out = tmp_path / "out"
        r = _run_cli(["--config", path, "verify", "li", "--output-dir", str(out)], tmp_path, cli_env)
        _assert_usage_error(r)
        assert key in r.stderr, r.stderr
        assert not out.exists()
    # seed 0 is a seed, and so is an integer too large for a float
    for seed in (0, 10**400):
        r = _run_cli(["--config", _write_config(tmp_path, seed=seed), "eval", "distance", "0.6,0.8,0"], tmp_path, cli_env)
        assert r.returncode == 0, r.stderr


def test_li_with_every_case_excluded_is_a_failed_verdict(tmp_path, cli_env):
    # ten paths leave no li case above its noise floor: exit 1, not a traceback
    path = tmp_path / "excluded.json"
    path.write_text(
        json.dumps(
            {
                "seed": 1,
                "group": {"l": 1, "k": [1], "a": [1.0]},
                "suites": ["li"],
                "sizes": {"family": 8, "li_points": 1},
                "diffusion": {"paths": 10},
            }
        )
    )
    out = tmp_path / "out"
    r = _run_cli(["--config", str(path), "verify", "--output-dir", str(out)], tmp_path, cli_env)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr, r.stderr
    assert "[FAIL] li" in r.stdout
    report = json.loads((out / "li.json").read_text())
    assert report["passed"] is False
    assert report["stats"]["gradient_bound"]["cases"] == 0
    assert any("all cases excluded" in note for note in report["notes"])


def test_lse_poe_on_one_path_is_a_failed_verdict(tmp_path, cli_env):
    # one path has no variance, so the small-h ratios are zero: exit 1 with
    # a note, not a division error
    path = tmp_path / "one_path.json"
    path.write_text(
        json.dumps(
            {
                "seed": 1,
                "group": {"l": 1, "k": [1], "a": [1.0]},
                "suites": ["lse-poe"],
                "sizes": {"family": 8, "li_points": 1},
                "diffusion": {"paths": 1},
            }
        )
    )
    out = tmp_path / "out"
    r = _run_cli(["--config", str(path), "verify", "--output-dir", str(out)], tmp_path, cli_env)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr, r.stderr
    assert "[FAIL] lse-poe" in r.stdout
    report = json.loads((out / "lse-poe.json").read_text())
    assert any("zero or not finite" in note for note in report["notes"])


def test_config_rejects_workers_key(tmp_path, cli_env):
    # the sampler has no worker count: a config key naming one is unknown
    path = _write_config(tmp_path, workers=1)
    out = tmp_path / "out"
    r = _run_cli(["--config", path, "verify", "distance", "--output-dir", str(out)], tmp_path, cli_env)
    _assert_usage_error(r)
    assert "'workers'" in r.stderr, r.stderr
    assert not out.exists()
    # the flag is still parsed as a count
    r = _run_cli(
        ["--config", _write_config(tmp_path), "verify", "distance", "--workers", "0", "--output-dir", str(out)],
        tmp_path,
        cli_env,
    )
    _assert_usage_error(r)
    assert not out.exists()


def test_config_rejects_diffusion_steps(tmp_path, cli_env):
    # the sampler draws each pair's bridge from a fixed number of Fourier
    # modes, so a step count is an unknown key, the old default included
    path = _write_config(tmp_path, diffusion={"steps": 200, "paths": 6000})
    out = tmp_path / "out"
    r = _run_cli(["--config", path, "verify", "distance", "--output-dir", str(out)], tmp_path, cli_env)
    _assert_usage_error(r)
    assert "'steps'" in r.stderr, r.stderr
    assert not out.exists()


def test_config_rejects_bad_counts_before_eval(tmp_path, cli_env):
    # eval reads no count, but the whole config is checked at load
    path = _write_config(tmp_path, diffusion={"paths": 0}, sizes={"distance_points": -5})
    r = _run_cli(["--config", path, "eval", "distance", "0.6,0.8,0"], tmp_path, cli_env)
    _assert_usage_error(r)


def test_config_accepts_integral_float_counts(tmp_path, cli_env):
    path = _write_config(tmp_path, diffusion={"paths": 6000.0})
    r = _run_cli(["--config", path, "eval", "distance", "0.6,0.8,0"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr


def test_verify_accepts_the_bench_command_line(tmp_path, config_path, cli_env):
    # bench/run.py drives each suite with this argv; --workers is ignored
    argv = [
        "--config", config_path, "--seed", "3", "verify", "li",
        "--output-dir", "out", "--workers", "1",
    ]
    args = build_parser().parse_args(argv)
    assert (args.command, args.suite, args.seed, args.output_dir) == ("verify", ["li"], 3, "out")
    out = tmp_path / "out"
    r = _run_cli(
        ["--config", config_path, "verify", "distance", "--output-dir", str(out), "--workers", "1"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0, r.stderr
    assert (out / "distance.json").exists()


def _traced_attribute(layer, attr):
    """The function or class-dict entry that a `TRACED` pair names."""
    home = importlib.import_module(f"nilheat.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert hasattr(home, cls_name), f"nilheat.{layer}.{cls_name} does not resolve"
        return getattr(home, cls_name).__dict__.get(meth)
    return getattr(home, attr, None)


def test_bench_tracer_names_resolve():
    # the benchmark's tracer patches functions by (module, attribute); a
    # renamed or deleted function must fail here, not only in a traced run.
    # Installing it replaces each traced function, uninstalling restores it.
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.TRACED
    originals = {key: _traced_attribute(*key) for key in bench.TRACED}
    missing = [key for key, original in originals.items() if not callable(original)]
    assert not missing, f"traced names that do not resolve to a callable: {missing}"
    tracer = bench.Tracer()
    try:
        tracer.install()
        unpatched = [key for key, original in originals.items() if _traced_attribute(*key) is original]
        assert not unpatched, f"traced names never patched: {unpatched}"
    finally:
        tracer.uninstall()
    stale = [key for key, original in originals.items() if _traced_attribute(*key) is not original]
    assert not stale, f"traced names not restored: {stale}"
