"""Spans around nilheat's layer boundaries, recorded from outside the package.

`Tracer.install()` replaces each function named in `TRACED` by a wrapper in
every loaded ``nilheat`` module that binds it (``from .kernel import
kernel_zsq`` in polar.py makes ``polar.kernel_zsq`` a second binding), so a
moved import is still traced.  `Tracer.uninstall()` puts the originals back.

A wrapper opens a span on a per-thread stack: name, layer, parent, start and
end.  A span's self time is its duration minus the time of its child spans,
and a layer's self time is the sum over its spans.  A span whose parent is in
another layer is a *layer entry*: `<layer>.calls` counts those, and a
layer's `errors` counts exceptions that leave a layer entry.  Work counts
(points, rays, path steps) are read from each call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every traced function; the module is the layer.
TRACED = (
    ("kernel", "kernel_zsq"),
    ("kernel", "kernel_points"),
    ("kernel", "kernel_derivatives"),
    ("kernel", "kernel_product_grid"),
    ("kernel", "integrate_radial"),
    ("distance", "solve_theta_arrays"),
    ("distance", "distance_squared_arrays"),
    ("polar", "ray_integral_check"),
    ("polar", "sample_exterior_cloud"),
    ("semigroup", "sample_heat_points"),
    ("semigroup", "semigroup_estimate"),
    ("semigroup", "grad_semigroup_components"),
    ("groups", "multiply_flat"),
    ("groups", "horizontal_components"),
    ("sampling", "kernel_feasible_mask"),
    ("suites", "run_suite"),
    ("reports", "write_report"),
    ("reports", "write_csv"),
    ("testfuncs", "TestFunction.value"),
    ("testfuncs", "TestFunction.gradient"),
    ("testfuncs", "TestFunction.hessian"),
)

SUITES = ("distance", "kernel", "polar", "lemma6", "cheeger", "li", "lse-poe")


def _rows(arr):
    """Number of points in an array of shape (..., d)."""
    return math.prod(np.shape(arr)[:-1])


def _below_error(values, errors):
    return int(np.count_nonzero(np.abs(values) <= errors))


class _Span:
    __slots__ = ("index", "name", "layer", "start", "child", "entry")

    def __init__(self, index, name, layer, start, entry):
        self.index = index
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.entry = entry


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (owner, attribute, original)
        self.spans = []  # (name, parent index or -1, start, end)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = defaultdict(float)
        self.kernel_call_ms = []
        self.ray_error_ratio_max = 0.0
        self._method_arg = {}

    # -- installation --------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "nilheat" or n.startswith("nilheat.")]
        for layer, attr in TRACED:
            home = importlib.import_module(f"nilheat.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(attr, layer, original))
                continue
            original = getattr(home, attr)
            if attr in ("semigroup_estimate", "grad_semigroup_components"):
                self._method_arg[attr] = inspect.signature(original)
            wrapper = self._wrap(attr, layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- spans -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            entry = parent is None or parent.layer != layer
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            span = _Span(index, name, layer, time.perf_counter(), entry)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(stack, span, parent, error=True)
                raise
            duration = tracer._close(stack, span, parent, error=False)
            tracer._observe(name, args, kwargs, result, span, parent, duration)
            return result

        return wrapper

    def _close(self, stack, span, parent, error):
        end = time.perf_counter()
        stack.pop()
        duration = end - span.start
        if parent is not None:
            parent.child += duration
        with self._lock:
            self.spans[span.index] = (
                span.name, parent.index if parent is not None else -1, span.start, end
            )
            self.self_s[span.layer] += duration - span.child
            self.inclusive_s[span.name] += duration
            if span.entry:
                self.calls[span.layer] += 1
                self.errors[span.layer] += int(error)
                if span.layer == "kernel":
                    self.kernel_call_ms.append(1e3 * duration)
        return duration

    # -- work counts -----------------------------------------------------

    def _observe(self, name, args, kwargs, result, span, parent, duration):
        c = {}
        if name in ("kernel_zsq", "kernel_product_grid"):
            values, errors = result
            c["kernel.points"] = values.size
            c["kernel.below_error"] = _below_error(values, errors)
            if name == "kernel_product_grid":
                c["kernel.grid_points"] = values.size
            if parent is not None and parent.name == "ray_integral_check":
                c["polar.ray_kernel_points"] = values.size
        elif name == "kernel_derivatives":
            c["kernel.points"] = c["kernel.derivative_points"] = result["p"].size
            c["kernel.below_error"] = _below_error(result["p"], result["err"])
        elif name in ("solve_theta_arrays", "distance_squared_arrays"):
            if name == "solve_theta_arrays":
                branch = result[1]
                c["distance.solved"] = branch.size
                c["distance.boundary"] = int(np.count_nonzero(branch == 2))
            if span.entry:
                d2 = result[0] if isinstance(result, tuple) else result
                c["distance.points"] = np.size(d2)
        elif name == "ray_integral_check":
            c["polar.rays"] = 1
            integral = result["integral"]
            ratio = abs(result["integral_error"] / integral) if integral else math.inf
            with self._lock:
                self.ray_error_ratio_max = max(self.ray_error_ratio_max, ratio)
        elif name == "sample_exterior_cloud":
            c["polar.cloud_kept"] = len(result[0])
            c["polar.cloud_rejected"] = result[3]["rejected"]
        elif name == "sample_heat_points":
            spec = args[2] if len(args) > 2 else kwargs["spec"]
            c["semigroup.path_steps"] = result.shape[0] * spec.steps
        elif name in self._method_arg:
            bound = self._method_arg[name].bind(*args, **kwargs)
            c["semigroup.quadrature_calls"] = int(bound.arguments.get("method", "mc") == "quadrature")
        elif name in ("multiply_flat", "horizontal_components"):
            c["groups.points"] = _rows(result)
        elif name == "kernel_feasible_mask":
            c["sampling.points"] = result.size
            c["sampling.kept"] = int(np.count_nonzero(result))
        elif name.startswith("TestFunction."):
            coords = args[1] if len(args) > 1 else kwargs["coords"]
            c["testfuncs.points"] = _rows(coords)
        elif name == "run_suite":
            suite = args[0] if args else kwargs["name"]
            c[f"suites.{suite}_s"] = duration
        with self._lock:
            for key, value in c.items():
                self.counts[key] += value

    # -- results -----------------------------------------------------------

    def metrics(self, report_bytes, traced_s, untraced_s):
        """Every per-layer metric, as {name: (value, unit)}."""
        k = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def pct(values, q):
            return float(np.percentile(values, q)) if values else 0.0

        m = {f"suites.{s}_s": (k[f"suites.{s}_s"], "s") for s in SUITES}
        m.update(
            {
                "kernel.calls": (self.calls["kernel"], "count"),
                "kernel.points": (k["kernel.points"], "count"),
                "kernel.self_s": (self.self_s["kernel"], "s"),
                "kernel.points_per_s": (ratio(k["kernel.points"], self.self_s["kernel"]), "1/s"),
                "kernel.call_p50_ms": (pct(self.kernel_call_ms, 50), "ms"),
                "kernel.call_p99_ms": (pct(self.kernel_call_ms, 99), "ms"),
                "kernel.derivative_points": (k["kernel.derivative_points"], "count"),
                "kernel.grid_points": (k["kernel.grid_points"], "count"),
                "kernel.errors": (self.errors["kernel"], "count"),
                "kernel.below_error_frac": (ratio(k["kernel.below_error"], k["kernel.points"]), "ratio"),
                "distance.calls": (self.calls["distance"], "count"),
                "distance.points": (k["distance.points"], "count"),
                "distance.self_s": (self.self_s["distance"], "s"),
                "distance.points_per_s": (ratio(k["distance.points"], self.self_s["distance"]), "1/s"),
                "distance.boundary_frac": (ratio(k["distance.boundary"], k["distance.solved"]), "ratio"),
                "polar.rays": (k["polar.rays"], "count"),
                "polar.rays_per_s": (
                    ratio(k["polar.rays"], self.inclusive_s["ray_integral_check"]), "1/s"
                ),
                "polar.ray_nodes": (k["polar.ray_kernel_points"] - k["polar.rays"], "count"),
                "polar.self_s": (self.self_s["polar"], "s"),
                "polar.cloud_rejection_frac": (
                    ratio(k["polar.cloud_rejected"], k["polar.cloud_rejected"] + k["polar.cloud_kept"]),
                    "ratio",
                ),
                "polar.ray_error_ratio_max": (self.ray_error_ratio_max, "ratio"),
                "semigroup.path_steps": (k["semigroup.path_steps"], "count"),
                "semigroup.sampler_s": (self.inclusive_s["sample_heat_points"], "s"),
                "semigroup.path_steps_per_s": (
                    ratio(k["semigroup.path_steps"], self.inclusive_s["sample_heat_points"]), "1/s"
                ),
                "semigroup.quadrature_calls": (k["semigroup.quadrature_calls"], "count"),
                "semigroup.self_s": (self.self_s["semigroup"], "s"),
                "testfuncs.points": (k["testfuncs.points"], "count"),
                "testfuncs.self_s": (self.self_s["testfuncs"], "s"),
                "testfuncs.points_per_s": (ratio(k["testfuncs.points"], self.self_s["testfuncs"]), "1/s"),
                "groups.points": (k["groups.points"], "count"),
                "groups.self_s": (self.self_s["groups"], "s"),
                "sampling.self_s": (self.self_s["sampling"], "s"),
                "sampling.feasible_kept_frac": (ratio(k["sampling.kept"], k["sampling.points"]), "ratio"),
                "reports.bytes": (report_bytes, "bytes"),
                "reports.write_s": (
                    self.inclusive_s["write_report"] + self.inclusive_s["write_csv"], "s"
                ),
                "trace.spans": (len(self.spans), "count"),
                "trace.overhead_frac": (ratio(traced_s, untraced_s) - 1.0, "ratio"),
            }
        )
        return m

    def dump(self, path):
        """Write every span as [name, parent, start_s, end_s], starts relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[n, p, round(s - t0, 9), round(e - t0, 9)] for n, p, s, e in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "parent", "start_s", "end_s"], "spans": rows}, fh)
