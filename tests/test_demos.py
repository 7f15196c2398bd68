"""Every script under demos/ runs to completion against the tested package."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path, cli_env):
    r = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, cwd=tmp_path, env=cli_env
    )
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr, r.stderr
    assert r.stdout


def test_demos_are_found():
    assert DEMOS, "no demo scripts found"
