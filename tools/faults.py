"""Fault inventory: which checks catch which injected faults.

Each fault is one text patch of one file under `src/nilheat/`.  For each
fault the tree is copied to a temporary directory and the patch is applied
there, never to the tree under test.  The copy then runs Tier-1 and
`nilheat verify` for all seven suites on configs/h1.json, noniso.json and
three.json at the config seed.  A run with no patch comes first: every
check must pass there, or the table would blame the faults for a failure
of the tree.

    python tools/faults.py --label change            # every fault
    python tools/faults.py --label change --only chain_plus_w
    python tools/faults.py --table                   # README table

Each run is stored under its label in FAULTS.json at the repository root
(other labels are kept), as the failed Tier-1 test ids and, per config
and suite, the FAILED notes of the suite report.  One fault costs about
one Tier-1 run plus 20 s of verify on 2 CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "FAULTS.json"
CONFIGS = ("h1", "noniso", "three")
SUITES = ("distance", "kernel", "polar", "lemma6", "cheeger", "li", "lse-poe")
PKG = "src/nilheat/"

# name -> (file under src/nilheat, text, replacement, what the patch does)
FAULTS = {
    "twist_sign": (
        "groups.py", "    twist = 2.0 * twist\n", "    twist = -2.0 * twist\n", "group-law twist sign flipped"),
    "twist_1e-6": (
        "groups.py", "    twist = 2.0 * twist\n", "    twist = 2.0 * (1 + 1e-6) * twist\n",
        "group-law twist x (1 + 1e-6)"),
    "frame_2a_1e-6": (
        "groups.py", "sgn * 2.0 * a *", "sgn * 2.0 * (1 + 1e-6) * a *", "frame t-coefficients 2a -> 2a (1 + 1e-6)"),
    "delta2_value_1e-6": (
        "kernel.py", 'out = {"val": val, ', 'out = {"val": val * (1 + 1e-6), ',
        "saddle-line Delta/2 value x (1 + 1e-6)"),
    "prefactor_exponent": (
        "kernel.py", "** (-(params.n + 1)) for v", "** (-(params.n + 1.000001)) for v",
        "prefactor exponent n + 1 -> n + 1.000001"),
    "xcoth_1e-7": (
        "kernel.py", "    return logr @ np.asarray(params.k, dtype=float), xc\n",
        "    return logr @ np.asarray(params.k, dtype=float), xc * (1 + 1e-7)\n", "x coth x table x (1 + 1e-7)"),
    "kernel_dz_1.001": (
        "kernel.py", 'wblk = (norm[:, None] * out["dcoth"])', 'wblk = 1.001 * (norm[:, None] * out["dcoth"])',
        "kernel z-partials x 1.001"),
    "kernel_dz_1.01": (
        "kernel.py", 'wblk = (norm[:, None] * out["dcoth"])', 'wblk = 1.01 * (norm[:, None] * out["dcoth"])',
        "kernel z-partials x 1.01"),
    "kernel_dt_1.001": (
        "kernel.py", 'out["dtau"] / (4.0 * hs)', '1.001 * out["dtau"] / (4.0 * hs)', "kernel t-partial x 1.001"),
    "kernel_dt_1.01": (
        "kernel.py", 'out["dtau"] / (4.0 * hs)', '1.01 * out["dtau"] / (4.0 * hs)', "kernel t-partial x 1.01"),
    "levy_area_1.0005": (
        "semigroup.py", "out[:, 2 * n] = -8.0 * (area @ params.pair_a)",
        "out[:, 2 * n] = -8.0 * 1.0005 * (area @ params.pair_a)", "sampler Levy area x 1.0005"),
    "bridge_modes_4": (
        "semigroup.py", "_BRIDGE_MODES = 16 ", "_BRIDGE_MODES = 4 ", "Brownian-bridge modes 16 -> 4"),
    "testfunc_grad_1.001": (
        "testfuncs.py", "parts[1][:, d] = (pd[d] * b + pbq2 * xi[d]) / self.scale",
        "parts[1][:, d] = 1.001 * (pd[d] * b + pbq2 * xi[d]) / self.scale", "test-function gradient x 1.001"),
    "stderr_count_x4": (
        "semigroup.py", "return mean, math.sqrt(var) / math.sqrt(count)",
        "return mean, math.sqrt(var) / math.sqrt(4 * count)", "standard error's count x 4"),
    "unit_ball_radius": (
        "sampling.py", "box[distance_squared_arrays(params, zsq, box[:, -1]) < 1.0]",
        "box[distance_squared_arrays(params, zsq, box[:, -1]) < 0.9801]", "unit-ball sample radius 1 -> 0.99"),
    "chain_plus_w": (
        "semigroup.py",
        "g_flat[0 : 2 * n : 2] - W[:, 0 : 2 * n : 2], g_flat[1 : 2 * n : 2] - W[:, 1 : 2 * n : 2]",
        "g_flat[0 : 2 * n : 2] + W[:, 0 : 2 * n : 2], g_flat[1 : 2 * n : 2] + W[:, 1 : 2 * n : 2]",
        "_chain_coefficients g - W -> g + W"),
    "quadrature_jet_left": (
        "semigroup.py", 'hat = horizontal_components(params, der["dp"], shifted, "right")',
        'hat = horizontal_components(params, der["dp"], shifted, "left")', 'quadrature jet frame "right" -> "left"'),
    "newton_stop_1e-3": (
        "distance.py", "_NEWTON_STOP = 1e-8 ", "_NEWTON_STOP = 1e-3 ", "_NEWTON_STOP 1e-8 -> 1e-3"),
    "chart_jacobian_eta": (
        "polar.py", "np.prod(fac ** np.asarray(params.k), axis=-1) * dt\n",
        "np.prod(fac ** np.asarray(params.k), axis=-1) * dt * (1 + 1e-6 * eta)\n",
        "chart Jacobian x (1 + 1e-6 eta)"),
    "dilate_t_1.01": (
        "groups.py", "coords[..., 2 * params.n] * r * r\n", "coords[..., 2 * params.n] * r * r * 1.01\n",
        "dilate_flat t entry x 1.01"),
    "dilate_z_1.01": (
        "groups.py", "out = coords * r[..., None]\n", "out = coords * r[..., None] * 1.01\n",
        "dilate_flat z entries x 1.01 (t is overwritten)"),
    "dilate_t_1e-6": (
        "groups.py", "coords[..., 2 * params.n] * r * r\n", "coords[..., 2 * params.n] * r * r * (1 + 1e-6)\n",
        "dilate_flat t entry x (1 + 1e-6)"),
    "dilate_z_1e-6": (
        "groups.py", "out = coords * r[..., None]\n", "out = coords * r[..., None] * (1 + 1e-6)\n",
        "dilate_flat z entries x (1 + 1e-6)"),
    "support_reach_z_2": (
        "semigroup.py", "reach_z = 10.0 * math.sqrt(h)", "reach_z = 2.0 * math.sqrt(h)",
        "_support_grid z reach 10 sqrt(h) -> 2 sqrt(h)"),
    "distance_first_form_1e-6": (
        "distance.py", "np.sum(over_sin**2 * z, axis=-1)\n", "np.sum(over_sin**2 * z, axis=-1) * (1 + 1e-6)\n",
        "interior d^2 x (1 + 1e-6)"),
}


def _copy_tree(dest: Path):
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", "*.egg-info", "reports", ".bench_runs", ".benchmarks"
    )
    shutil.copytree(ROOT, dest, ignore=ignore)


def _apply(tree: Path, name: str):
    path, text, new, _ = FAULTS[name]
    target = tree / PKG / path
    source = target.read_text()
    if text not in source:
        raise SystemExit(f"fault {name}: patch text not found in {PKG}{path}")
    target.write_text(source.replace(text, new))


def _tier1(tree: Path, env):
    """Failed Tier-1 test ids, the pytest summary line and the seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--tb=no", "-rfE"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=3600,
    )
    lines = proc.stdout.splitlines()
    failed = sorted({m.group(1) for m in (re.match(r"(?:FAILED|ERROR) (\S+)", ln) for ln in lines) if m})
    summary = next((ln.strip("= ") for ln in reversed(lines) if " in " in ln), proc.stdout[-200:])
    return {"failed": failed, "summary": summary, "seconds": round(time.perf_counter() - start, 1)}


def _verify(tree: Path, env, config: str):
    """Per suite: [] when it passes, its FAILED notes when it fails, or the
    tail of stderr when the run left no report for it."""
    out_dir = tree / "fault_reports" / config
    proc = subprocess.run(
        [sys.executable, "-m", "nilheat", "--config", f"configs/{config}.json", "verify", *SUITES,
         "--output-dir", str(out_dir)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=1800,
    )
    result = {}
    for suite in SUITES:
        report = out_dir / f"{suite}.json"
        if not report.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            result[suite] = [f"NO REPORT: {tail[0]}"]
            continue
        data = json.loads(report.read_text())
        notes = [n for n in data.get("notes", []) if n.startswith("FAILED")]
        result[suite] = [] if data.get("passed") else (notes or ["FAILED"])
    return result


def run_fault(name):
    """One row of the table: the patched copy's Tier-1 and verify results
    (name None runs the tree as it is)."""
    with tempfile.TemporaryDirectory(prefix="nilheat-fault-") as tmp:
        tree = Path(tmp) / "tree"
        _copy_tree(tree)
        if name is not None:
            _apply(tree, name)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        row = {"fault": name or "none", "patch": FAULTS[name][3] if name else "no patch"}
        row["tier1"] = _tier1(tree, env)
        row["verify"] = {config: _verify(tree, env, config) for config in CONFIGS}
    return row


def caught_by(row):
    """The (config, suite) cells that fail in a row."""
    return [f"{config}:{suite}" for config, suites in row["verify"].items() for suite, notes in suites.items() if notes]


def markdown(run):
    """One table line per fault: its Tier-1 failure count, the verify cells
    that fail and their distinct FAILED notes."""
    lines = ["| fault | Tier-1 failures | `nilheat verify` fails | failed checks |", "|---|---:|---|---|"]
    for row in run["rows"]:
        cells = ", ".join(caught_by(row)) or "none"
        notes = dict.fromkeys(
            n.removeprefix("FAILED: ").replace("|", "\\|") for s in row["verify"].values() for v in s.values() for n in v
        )
        lines.append(f"| {row['patch']} | {len(row['tier1']['failed'])} | {cells} | {'; '.join(notes)} |")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", help="store the run under this label in FAULTS.json")
    ap.add_argument("--only", nargs="+", choices=sorted(FAULTS), help="run these faults only")
    ap.add_argument("--table", metavar="LABEL", nargs="?", const="change", help="print the stored run as markdown")
    args = ap.parse_args(argv)
    if args.label is None:
        if args.table is None:
            ap.error("give --label to run, or --table to print")
        print(markdown(json.loads(OUT.read_text())[args.table]))
        return 0
    rows = []
    for name in [None, *(args.only or FAULTS)]:
        row = run_fault(name)
        rows.append(row)
        print(f"{row['fault']}: Tier-1 {len(row['tier1']['failed'])} failed, verify {caught_by(row) or 'passes'}",
              file=sys.stderr, flush=True)
    if caught_by(rows[0]) or rows[0]["tier1"]["failed"]:
        print("the unpatched tree fails a check; the table does not isolate the faults", file=sys.stderr)
    table = json.loads(OUT.read_text()) if OUT.exists() else {}
    table[args.label] = {"rows": rows}
    OUT.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
