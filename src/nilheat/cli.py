"""Command-line front end.

Thin orchestration only: parse the config, dispatch to the suites, write
reports, map verdicts to exit codes.  Every number in a report comes from
a library call.

Exit codes: 0 all verdicts pass, 1 at least one verdict fails, 2 usage or
configuration error.

Commands:
  nilheat verify <suite> [...] --config cfg.json [--seed N] [--output-dir D]
  nilheat eval kernel  "x11,y11,...,t" [--h H] --config cfg.json
  nilheat eval distance "x11,y11,...,t" --config cfg.json
  nilheat plot kernel-slice|distance-sphere|ratio-cloud --out FILE --config cfg.json

The config file is JSON: group (l, k, a with a_l = 1), mandatory seed,
optional quadrature/diffusion/sizes blocks, suites, output_dir.  Command
line flags override file values.  Reports embed the resolved config and
seed; rerunning with the same config and seed reproduces them byte for
byte, independent of the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import distance as dist
from . import kernel as ker
from . import polar
from .groups import GroupParams, GroupPoint, dilate_flat
from .reports import write_csv, write_report
from .sampling import philox
from .suites import SUITE_NAMES, RunConfig, config_from_dict, run_suite

_USAGE_ERROR = 2


def _load_config(path, overrides) -> RunConfig:
    if path is None:
        raise ValueError("--config is required")
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    for key, val in overrides.items():
        if val is not None:
            raw[key] = val
    return config_from_dict(raw)


def _parse_point(params: GroupParams, text: str) -> np.ndarray:
    vals = [float(v) for v in text.replace(" ", "").split(",") if v != ""]
    if len(vals) != params.dim:
        raise ValueError(
            f"point needs {params.dim} coordinates "
            f"[x_11, y_11, ..., t] for this group, got {len(vals)}"
        )
    return np.asarray(vals)


def _cmd_verify(args) -> int:
    overrides = {"seed": args.seed, "output_dir": args.output_dir, "workers": args.workers}
    cfg = _load_config(args.config, overrides)
    suites = args.suite or list(cfg.suites)
    if not suites:
        print("error: no suites selected", file=sys.stderr)
        return _USAGE_ERROR
    bad = [s for s in suites if s not in SUITE_NAMES]
    if bad:
        print(f"error: unknown suites {bad}; choose from {list(SUITE_NAMES)}", file=sys.stderr)
        return _USAGE_ERROR
    os.makedirs(cfg.output_dir, exist_ok=True)
    summary = {"seed": cfg.seed, "group": cfg.group.label(), "suites": {}}
    failed = []
    for name in suites:
        rep = run_suite(name, cfg)
        path = os.path.join(cfg.output_dir, f"{name}.json")
        write_report(rep, path)
        summary["suites"][name] = {
            "passed": bool(rep.passed),
            "constant": rep.constant,
            "report": os.path.basename(path),
        }
        status = "pass" if rep.passed else "FAIL"
        print(f"[{status}] {name}: {path}")
        if not rep.passed:
            failed.append(name)
    with open(os.path.join(cfg.output_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_csv(
        os.path.join(cfg.output_dir, "summary.csv"),
        ["suite", "passed", "constant"],
        [
            [name, entry["passed"], entry["constant"] if entry["constant"] is not None else ""]
            for name, entry in summary["suites"].items()
        ],
    )
    if failed:
        print(f"failed suites: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args.config, {"seed": args.seed})
    point = _parse_point(cfg.group, args.point)
    if args.quantity == "kernel":
        g = GroupPoint.from_flat(cfg.group, point)
        kv = ker.kernel(cfg.group, args.h, g, cfg.quadrature)
        print(json.dumps({"h": args.h, "value": kv.value, "error": kv.error}, sort_keys=True))
        return 0
    if args.quantity == "distance":
        g = GroupPoint.from_flat(cfg.group, point)
        d2 = dist.distance_squared(cfg.group, g)
        print(json.dumps({"distance": math.sqrt(d2), "distance_squared": d2}, sort_keys=True))
        return 0
    print(f"error: unknown quantity {args.quantity!r}", file=sys.stderr)
    return _USAGE_ERROR


def _cmd_plot(args) -> int:
    cfg = _load_config(args.config, {"seed": args.seed})
    params = cfg.group
    coord_names = []
    pair = 0
    for i, ki in enumerate(params.k):
        for j in range(ki):
            coord_names += [f"x_{i + 1}_{j + 1}", f"y_{i + 1}_{j + 1}"]
            pair += 1
    coord_names.append("t")

    if args.quantity == "kernel-slice":
        ts = np.linspace(-args.extent, args.extent, args.points)
        pts = np.zeros((ts.size, params.dim))
        pts[:, -1] = ts
        vals, errs = ker.kernel_points(params, args.h, pts, cfg.quadrature)
        rows = [
            list(pts[i]) + [args.h, float(vals[i]), float(errs[i])] for i in range(ts.size)
        ]
        write_csv(args.out, coord_names + ["h", "value", "error"], rows)
    elif args.quantity == "distance-sphere":
        rng = philox(cfg.seed, 77)
        dirs = rng.standard_normal((args.points, params.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rows = []
        for i in range(args.points):
            zsq = np.stack(
                [
                    np.sum(dirs[i, 2 * s.start : 2 * s.stop] ** 2, axis=-1)
                    for s in params.block_slices()
                ],
                axis=-1,
            )
            d = math.sqrt(float(dist.distance_squared_arrays(params, zsq, dirs[i, -1])))
            on_sphere = dilate_flat(params, 1.0 / d, dirs[i])
            zs = np.stack(
                [
                    np.sum(on_sphere[2 * s.start : 2 * s.stop] ** 2, axis=-1)
                    for s in params.block_slices()
                ],
                axis=-1,
            )
            dcheck = math.sqrt(float(dist.distance_squared_arrays(params, zs, on_sphere[-1])))
            rows.append(list(on_sphere) + [dcheck])
        write_csv(args.out, coord_names + ["distance"], rows)
    elif args.quantity == "ratio-cloud":
        u, eta, labels, _ = polar.sample_exterior_cloud(params, args.points, cfg.seed)
        rows = []
        for i in range(args.points):
            pp = polar.polar_point_from_flat(params, u[i], float(eta[i]))
            out = polar.ray_integral_check(params, pp, cfg.quadrature)
            rows.append(
                list(u[i])
                + [
                    float(eta[i]),
                    polar.speed(params, pp),
                    f"R{int(labels[i])}",
                    out["p"],
                    out["J"],
                    out["ratio"],
                ]
            )
        names = [n.replace("x_", "u_re_").replace("y_", "u_im_") for n in coord_names[:-1]]
        write_csv(args.out, names + ["eta", "U", "region", "p", "J", "ratio"], rows)
    else:
        print(f"error: unknown plot quantity {args.quantity!r}", file=sys.stderr)
        return _USAGE_ERROR
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nilheat",
        description="Verification suites for heat-kernel analysis on "
        "nonisotropic Heisenberg groups.",
    )
    ap.add_argument("--config", help="JSON config file (group, seed, suites, ...)")
    ap.add_argument("--seed", type=int, help="override the config seed")
    sub = ap.add_subparsers(dest="command")

    v = sub.add_parser("verify", help="run verification suites and write JSON reports")
    v.add_argument("suite", nargs="*", help=f"suites to run; default from config ({', '.join(SUITE_NAMES)})")
    v.add_argument("--output-dir", help="report directory (overrides config)")
    v.add_argument("--workers", type=int, help="worker threads for sweeps")

    e = sub.add_parser("eval", help="evaluate the kernel or the distance at a point")
    e.add_argument("quantity", choices=["kernel", "distance"])
    e.add_argument("point", help="comma-separated flat coordinates x_11,y_11,...,t")
    e.add_argument("--h", type=float, default=1.0, help="kernel time parameter")

    p = sub.add_parser(
        "plot",
        help="write gridded CSV data for external plotting",
        description=(
            "CSV columns by quantity: kernel-slice -> flat coordinates "
            "[x_i_j, y_i_j, ..., t], h, value, error; distance-sphere -> flat "
            "coordinates of points on the unit sphere plus their recomputed "
            "distance; ratio-cloud -> chart coordinates [u_re_i_j, u_im_i_j, "
            "...], eta, U, region, p, J, ratio."
        ),
    )
    p.add_argument("quantity", choices=["kernel-slice", "distance-sphere", "ratio-cloud"])
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--extent", type=float, default=6.0, help="kernel-slice t range")
    p.add_argument("--h", type=float, default=1.0)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_help()
        return _USAGE_ERROR
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "plot":
            return _cmd_plot(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
