"""Record first-run regression constants.

The inequality constants this library estimates have no published numeric
values; the suites therefore gate them against values recorded on the
first verified run.  This maintenance tool runs the suites ungated (the
runners in `SUITE_RUNNERS`, without the frozen-band gate of `run_suite`),
refuses a run that fails an analytic check, reads each constant through
the `FROZEN_BANDS` table the gate uses, and rewrites the packaged
``data/frozen_bounds.json``.  Run it only to re-baseline after a
deliberate change:

    python -m nilheat.freeze configs/h1.json configs/noniso.json
"""

from __future__ import annotations

import json
import pathlib
import sys

from .suites import SUITE_RUNNERS, RunConfig, band_values, config_from_dict


def freeze_config(cfg: RunConfig) -> dict:
    """{suite: {frozen key: value}} from one ungated run of cfg's suites."""
    out = {}
    for name in cfg.suites:
        rep = SUITE_RUNNERS[name](cfg)
        if not rep.passed:
            raise RuntimeError(
                f"suite {name} failed an analytic check on the baseline run; refusing to freeze"
            )
        out[name] = band_values(name, rep)
        print(f"froze {cfg.group.label()}/{name}: {out[name]}")
    return out


def main(argv=None) -> int:
    paths = argv if argv is not None else sys.argv[1:]
    if not paths:
        print("usage: python -m nilheat.freeze CONFIG [CONFIG ...]", file=sys.stderr)
        return 2
    table = {}
    target = pathlib.Path(__file__).parent / "data" / "frozen_bounds.json"
    if target.exists():
        table = json.loads(target.read_text())
    for path in paths:
        with open(path) as fh:
            cfg = config_from_dict(json.load(fh))
        table.setdefault(cfg.group.label(), {}).update(freeze_config(cfg))
    target.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
