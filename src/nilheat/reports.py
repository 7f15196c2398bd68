"""Structured verification reports with deterministic serialization.

Every inequality or identity check returns a VerificationReport.  Reports
are plain data: the identifier of the check, the resolved configuration
(including the RNG seed), summary statistics of the left/right sides, the
empirical constant, Monte Carlo standard errors where applicable, and the
verdict against a frozen regression bound.  Serialization is byte-stable:
keys are sorted, floats use shortest round-trip repr, and no timestamps or
environment data are embedded.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

__all__ = [
    "VerificationReport",
    "report_to_dict",
    "dumps_report",
    "write_report",
    "write_csv",
    "load_frozen_bounds",
    "within_band",
]


def _plain(obj):
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and (np.isnan(obj) or np.isinf(obj)):
        return repr(obj)
    return obj


@dataclass
class VerificationReport:
    identifier: str
    config: dict = field(default_factory=dict)
    seed: int | None = None
    stats: dict = field(default_factory=dict)
    constant: float | None = None
    se: float | None = None
    frozen: dict = field(default_factory=dict)
    passed: bool | None = None
    exclusions: int = 0
    notes: list = field(default_factory=list)

    def require(self, condition: bool, note: str):
        """Fold a sub-check into the verdict, recording failures."""
        ok = bool(condition)
        if self.passed is None:
            self.passed = ok
        else:
            self.passed = self.passed and ok
        if not ok:
            self.notes.append("FAILED: " + note)
        return ok

    def require_report(self, sub: "VerificationReport", note: str):
        """Fold a sub-check's report into the verdict: `require` its verdict
        and keep its FAILED notes after this report's own."""
        ok = self.require(sub.passed, note)
        self.notes.extend(n for n in sub.notes if n.startswith("FAILED: "))
        return ok


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "identifier": report.identifier,
        "config": _plain(report.config),
        "seed": report.seed,
        "stats": _plain(report.stats),
        "constant": _plain(report.constant),
        "se": _plain(report.se),
        "frozen": _plain(report.frozen),
        "passed": report.passed,
        "exclusions": report.exclusions,
        "notes": list(report.notes),
        "schema": "nilheat-report-v1",
    }


def dumps_report(report: VerificationReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def write_report(report: VerificationReport, path):
    with open(path, "w") as fh:
        fh.write(dumps_report(report))


def write_csv(path, columns, rows):
    """Write a plot/export CSV with a fixed column order."""

    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, np.integer):
            return int(v)
        return v

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


@functools.cache
def load_frozen_bounds() -> dict:
    """Frozen first-run regression values shipped with the package.

    Read once per process; the table is shared, so callers copy before
    they change it."""
    ref = resources.files("nilheat").joinpath("data/frozen_bounds.json")
    with ref.open() as fh:
        return json.load(fh)


def within_band(value: float, frozen_value: float, rel: float = 0.2) -> bool:
    """True when value sits within a +-rel band around the frozen value."""
    if not np.isfinite(value) or not np.isfinite(frozen_value):
        return False
    lo = frozen_value - rel * abs(frozen_value)
    hi = frozen_value + rel * abs(frozen_value)
    return lo <= value <= hi
