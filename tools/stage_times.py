#!/usr/bin/env python3
"""Per-function wall time of preset runs, from cProfile over every function in ``cirauth``.

Run from the root of a source checkout (it imports ``src/`` next to this
directory):

    python3 tools/stage_times.py --preset fig2 --trials 50 --repeats 20
    python3 tools/stage_times.py --preset fig5 --trials 2 --set cs.max_atoms=51

Each repeat is one serial ``cirauth run`` of the preset at the given
``scenario.trials`` and then each ``--set KEY=VALUE`` override in order
(so a non-preset setting can be profiled too), writing its CSV to a
temporary directory, under ``cProfile.Profile(builtins=False)``: C
functions, numpy's included, are not profiled, so their time counts in
their Python caller.  Every
function defined in the ``cirauth`` package (not comprehensions, lambdas
or module bodies) is reported under its bare name, same-named functions
summed, with its inclusive time.  ``estimate_curves`` runs three stages,
``standard_normal_rows``, ``measure_block`` and ``_block_decisions``;
``rest`` is the remainder (indices, stream ids and counts in
``_count_range``, alice's ``channel_block`` on ``fc_raw_cs``, and the
curves).  The README maps the paper's layers
to these names.  The profiler adds a cost per Python call, so compare
the fastest of several runs.  The first repeat warms up and is dropped.
The last line of output is one JSON object with the median over the
repeats of each function's microseconds per trial, and its calls per run,
and the median over the repeats of the run's minor page faults and
system seconds (``resource.getrusage`` of the process around each
profiled call).  cProfile charges a fault's kernel time to whichever
function first touches the page, so these two say how much of the
functions' times is the kernel's.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pstats
import resource
import statistics
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cirauth import cli  # noqa: E402

STAGES = ("standard_normal_rows", "measure_block", "_block_decisions")


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _profile(argv_run: list[str]) -> tuple[dict, tuple[int, float]] | None:
    """{name: [calls, inclusive s]} of cirauth's functions over one run and the run's (minor faults, system s),
    or None if the run failed."""
    profiler, err = cProfile.Profile(builtins=False), io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):  # the run's summary and notes
        before = resource.getrusage(resource.RUSAGE_SELF)
        code = profiler.runcall(cli.main, argv_run)
        after = resource.getrusage(resource.RUSAGE_SELF)
    if code != 0:
        sys.stderr.write(err.getvalue())
        return None
    kernel = (after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime)
    package = os.path.dirname(cli.__file__) + os.sep
    spent = defaultdict(lambda: [0, 0.0])
    for (path, _, name), (_, calls, _, inclusive, _) in pstats.Stats(profiler).stats.items():
        if path.startswith(package) and not name.startswith("<"):
            spent[name][0] += calls
            spent[name][1] += inclusive
    return spent, kernel


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=cli.PRESET_NAMES, default="fig2")
    parser.add_argument("--trials", type=_at_least_one, default=50, help="scenario.trials of one run")
    parser.add_argument("--repeats", type=_at_least_one, default=20)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="a config override passed to each run after scenario.trials (repeatable)")
    args = parser.parse_args(argv)

    grid = cli.parse_config(*cli.load_config_file(args.preset))["scenario.snr_db"]
    trials = 2 * len(grid) * args.trials
    per_trial, kernel = defaultdict(list), []
    with tempfile.TemporaryDirectory() as work:
        argv_run = ["run", "--config", args.preset, "--out", str(Path(work) / "o.csv"), "--workers", "1",
                    *(a for o in (f"scenario.trials={args.trials}", *args.set) for a in ("--set", o))]
        for repeat in range(args.repeats + 1):
            if (profiled := _profile(argv_run)) is None:
                return 1
            if repeat == 0:
                continue  # warm-up
            spent, run_kernel = profiled
            kernel.append(run_kernel)
            us = {name: s / trials * 1e6 for name, (_, s) in spent.items()}
            us["rest"] = us["estimate_curves"] - sum(us[stage] for stage in STAGES)
            for name, value in us.items():
                per_trial[name].append(value)
    faults, system_s = zip(*kernel)
    print(json.dumps({
        "preset": args.preset, "trials_per_run": trials, "repeats": args.repeats,
        "us_per_trial_median": {name: round(statistics.median(v), 3) for name, v in sorted(per_trial.items())},
        "calls_per_run": {name: n for name, (n, _) in sorted(spent.items())},
        "minor_faults_per_run": statistics.median(faults), "system_s_per_run": round(statistics.median(system_s), 6),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
