#!/usr/bin/env python3
"""Benchmark of `nilheat verify` on workloads built from the shipped configs.

Run from the repository root:

    python3 bench/run.py --workload h1-kernel --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: set-up time over
several fresh interpreters, then `nilheat verify` (through the public
``nilheat.cli.main``) repeated until ``--seconds`` have passed, with the
median verify time and the process's peak resident memory.  With
``--trace 1`` it runs the same untraced verify, then one more with spans
around every layer (see tracer.py), and reports the per-layer metrics.

Every run checks that each suite's verdict passes, that no suite raises,
and that the report bytes are identical across the repeats and between the
traced and the untraced run.  A traced run also checks which layers record
calls (see WORKLOADS).  Reports go to a scratch directory under
``.bench_runs/``, never into ``reports/``.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"

Workload = namedtuple("Workload", "config suites expected_layers forbidden_layers")

# When traced, each expected layer must record calls and each forbidden
# layer must record none.
WORKLOADS = {
    "h1-kernel": Workload(
        "configs/h1.json",
        ("kernel", "li"),
        ("suites", "kernel", "distance", "semigroup", "testfuncs", "groups", "sampling", "reports"),
        (),
    ),
    "noniso-rays": Workload(
        "configs/noniso.json",
        ("distance", "polar", "lemma6"),
        ("suites", "kernel", "distance", "polar", "reports"),
        (),
    ),
    "h1-montecarlo": Workload(
        "configs/h1.json",
        ("cheeger", "lse-poe"),
        ("suites", "distance", "semigroup", "testfuncs", "groups", "reports"),
        ("kernel",),
    ),
}

Run = namedtuple("Run", "seconds failed reports")

SETUP_REPEATS = 25
SETUP_CODE = (
    "import json, sys\n"
    "from nilheat.cli import main\n"
    "from nilheat.suites import config_from_dict\n"
    "with open(sys.argv[1]) as fh:\n"
    "    config_from_dict(json.load(fh))\n"
)


def cap_blas_threads(nproc):
    """Allow BLAS at most nproc threads; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = os.environ.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def measure_setup(config):
    """Seconds from starting a fresh interpreter to the end of the nilheat
    import and config load, once per repeat after one unmeasured warm-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, config]
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return samples[1:]


def read_tree(directory):
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(Path(directory).rglob("*"))
        if p.is_file()
    }


def verify_once(nilheat_main, config, seed, suites):
    """One `nilheat verify` per suite into a scratch directory.

    Returns a Run: verify seconds, failed suites and {report path: bytes}.
    A suite fails when its verdict fails or it raises; the other suites
    still run.
    """
    RUNS_DIR.mkdir(exist_ok=True)
    failed = []
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as out:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            for suite in suites:
                argv = [
                    "--config", config, "--seed", str(seed), "verify", suite,
                    "--output-dir", os.path.join(out, suite), "--workers", "1",
                ]
                try:
                    code = nilheat_main(argv)
                except RuntimeError as exc:  # QuadratureError, KernelConditioningError
                    print(f"suite {suite} raised {type(exc).__name__}: {exc}")
                    code = None
                if code != 0:
                    failed.append(suite)
        seconds = time.perf_counter() - t0
        return Run(seconds, failed, read_tree(out))


def src_line_count():
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def environment(np, nproc, blas_threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": nproc,
        "src_lines": src_line_count(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed; recorded, see README.md for why verify keeps the config seed")
    ap.add_argument("--seconds", type=float, required=True, help="minimum measured time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    config, suites = str(ROOT / workload.config), workload.suites
    if not (SRC / "nilheat" / "__init__.py").is_file() or not Path(config).is_file():
        print(f"error: {ROOT} lacks src/nilheat or {config}; run from a full checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import nilheat
    from nilheat.cli import main as nilheat_main

    if Path(nilheat.__file__).resolve().parent != SRC / "nilheat":
        print(f"error: imported nilheat from {nilheat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(config) as fh:
        seed = json.load(fh)["seed"]
    env = environment(np, nproc, blas_threads)
    print("environment " + json.dumps(env, sort_keys=True), file=sys.stderr)

    setup = measure_setup(config) if not args.trace else []
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        runs.append(verify_once(nilheat_main, config, seed, suites))
    untraced_s = statistics.median(r.seconds for r in runs)
    reports = runs[0].reports
    problems = []
    if any(r.reports != reports for r in runs):
        problems.append("report bytes differ between repeats")

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = verify_once(nilheat_main, config, seed, suites)
        finally:
            tracer.uninstall()
        runs.append(traced)
        if traced.reports != reports:
            problems.append("traced report bytes differ from untraced")
        idle = [layer for layer in workload.expected_layers if tracer.calls[layer] == 0]
        if idle:
            problems.append(f"layers recorded no calls: {idle}")
        busy = [layer for layer in workload.forbidden_layers if tracer.calls[layer] != 0]
        if busy:
            problems.append(f"layers that this workload bypasses recorded calls: {busy}")
        tracer.dump(RUNS_DIR / f"trace-{args.workload}.json")
        report_bytes = sum(len(b) for b in reports.values())
        metrics = tracer.metrics(report_bytes, traced.seconds, untraced_s)
    else:
        metrics = {
            "verify_s": (untraced_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    attempted = len(suites) * len(runs)
    failed = sum(len(r.failed) for r in runs)
    for run in runs:
        for suite in run.failed:
            problems.append(f"suite {suite} failed")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, workload seed {args.seed}, config seed {seed}, "
          f"{len(runs)} verify runs, "
          f"suite failure ratio {failed}/{attempted}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
