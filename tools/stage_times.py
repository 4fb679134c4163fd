#!/usr/bin/env python3
"""Per-stage wall time of preset runs, from timers wrapped around the engine's stage calls.

Run from the root of a source checkout (it imports ``src/`` next to this
directory):

    python3 tools/stage_times.py --preset fig2 --trials 50 --repeats 20

Each repeat is one serial ``cirauth run`` of the preset at the given
``scenario.trials``, writing its CSV to a temporary directory.  Three
names in ``simkit``'s namespace are wrapped with timers:

* ``standard_normal_rows``: the per-trial streams;
* ``measure_block``: channels, noise and the occupant's measurement;
* ``_block_decisions``: reports, statistics and decisions.

Parts of a stage are timed as well, each under its bare name:

* ``detect.quadratic_statistic`` and ``sparse._batch_omp`` (compressed
  schemes, where some variant can read a recovered report), which
  ``_block_decisions`` calls;
* ``cli.write_csv``, which runs after ``estimate_curves``.

``rest`` is the remainder of ``estimate_curves``: indices, stream ids and
counts in ``_count_range``, and the curves.  The first repeat warms up
and is dropped.  The last line of output is one JSON object with the
median over the repeats of each timed name's microseconds per trial, and
its calls per run.  A stage the preset runs and that records no call, or
a name the engine no longer has, means the timers went stale.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cirauth import cli, detect, simkit, sparse  # noqa: E402

STAGES = ("standard_normal_rows", "measure_block", "_block_decisions")
TIMED = {
    simkit: STAGES + ("estimate_curves",),
    sparse: ("_batch_omp",),
    detect: ("quadratic_statistic",),
    cli: ("write_csv",),
}


def _timed(fn, spent: dict, calls: dict, name: str):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - start
    return wrapper


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=cli.PRESET_NAMES, default="fig2")
    parser.add_argument("--trials", type=int, default=50, help="scenario.trials of one run")
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)

    spent, calls = {}, {}
    for module, names in TIMED.items():
        for name in names:
            spent[name], calls[name] = 0.0, 0
            setattr(module, name, _timed(getattr(module, name), spent, calls, name))
    grid = cli.parse_config(*cli.load_config_file(args.preset))["scenario.snr_db"]
    trials = 2 * len(grid) * args.trials
    per_trial = {name: [] for name in (*spent, "rest")}
    with tempfile.TemporaryDirectory() as work:
        argv_run = ["run", "--config", args.preset, "--out", str(Path(work) / "o.csv"), "--workers", "1",
                    "--set", f"scenario.trials={args.trials}"]
        for repeat in range(args.repeats + 1):
            spent.update(dict.fromkeys(spent, 0.0))
            calls.update(dict.fromkeys(calls, 0))
            with redirect_stdout(io.StringIO()):
                if cli.main(argv_run) != 0:
                    return 1
            if repeat == 0:
                continue  # warm-up
            for name in spent:
                per_trial[name].append(spent[name] / trials * 1e6)
            per_trial["rest"].append(per_trial["estimate_curves"][-1] - sum(per_trial[s][-1] for s in STAGES))
    print(json.dumps({
        "preset": args.preset, "trials_per_run": trials, "repeats": args.repeats,
        "us_per_trial_median": {name: round(statistics.median(v), 3) for name, v in per_trial.items()},
        "calls_per_run": calls,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
