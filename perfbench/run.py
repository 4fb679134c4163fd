#!/usr/bin/env python3
"""Preset benchmark for cirauth: the four figure presets, end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig4-fc-raw-cs --seed 41004 \
        --seconds 18 --trace 0

One workload per process.  The timed unit is the CLI entry point,
``cirauth.cli.main(["run", ...])``, with ``--workers 1`` and a reduced
``scenario.trials``; calls repeat, on the same seed, until ``--seconds``
have passed, and each call's trials/s is scaled to a reference machine
speed (see ``calibrate.py``).  ``--trace 0`` reports the end-to-end
metrics, with set-up timed in fresh processes (see ``setup_probe.py``);
``--trace 1`` spends half the time untraced and half traced and reports
the per-layer metrics (see ``tracer.py``).  Every CSV is checked (see
``checks.py``); the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

# workload -> (preset, scenario.trials of one timed run).  Trial counts
# keep one cirauth run within 0.2-0.8 s on a 2-core x86 machine: short
# runs let the calibration passes around each one track the machine's
# speed, and a run of --seconds still holds 15 or more of them.
# README.md says why each preset is here.
WORKLOADS = {
    "fig2-fc-raw": ("fig2", 50),
    "fig3-local-fusion": ("fig3", 10),
    "fig4-fc-raw-cs": ("fig4", 1),
    "fig5-local-fusion-cs": ("fig5", 2),
}
SETUP_SAMPLES = 5
# BLAS threads per process; with the two-worker check that keeps
# threads x workers within a 2-core machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The untimed cross-worker check runs on this grid only.
SMALL_GRID = (-5.0, 5.0)
EXTRA_LAYER_METRICS = ("sparse.omp.atoms_per_call", "sparse.omp.breakdown_frac",
                       "trace.overhead_frac", "trace.unattributed_share")
# Unit of a per-layer metric, by the last part of its name.
LAYER_UNITS = {"calls_per_trial": "calls/trial", "us_per_call": "us", "self_share": "share",
               "atoms_per_call": "atoms/call", "breakdown_frac": "share",
               "overhead_frac": "share", "unattributed_share": "share"}


class Ledger:
    """cirauth runs (and set-up probes) attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


class Runner:
    """Calls ``cli.main`` for one workload and checks what it writes."""

    def __init__(self, cli, checks, calibration, preset_values, preset, seed, trials, work: Path):
        self.cli, self.checks, self.calibration = cli, checks, calibration
        self.preset_values, self.seed, self.trials = preset_values, seed, trials
        self.csv = work / "curves.csv"
        self.argv = [
            "run", "--config", preset, "--out", str(self.csv), "--workers", "1",
            "--seed", str(seed), "--set", f"scenario.trials={trials}",
        ]
        grid = checks.float_list(preset_values["scenario.snr_db"])
        self.trials_per_run = trials * len(grid) * 2  # two hypotheses per SNR point
        self.reference: bytes | None = None
        self.reference_ok = False

    def call(self, argv: list[str]) -> tuple[float, int, bytes]:
        """Wall time, exit code and CSV bytes of one ``cirauth run``."""
        self.csv.unlink(missing_ok=True)
        with redirect_stdout(io.StringIO()):  # cli prints one line per run
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        return elapsed, code, self.csv.read_bytes() if code == 0 else b""

    def problems(self, code: int, data: bytes, snr_db=None) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        return self.checks.check_csv(data.decode(), self.preset_values, self.seed, self.trials, snr_db)

    def warm_up(self, ledger: Ledger) -> None:
        """First run: fills caches and becomes the byte-for-byte reference."""
        _, code, data = self.call(self.argv)
        self.reference_ok = ledger.record("warm-up run", self.problems(code, data))
        self.reference = data if code == 0 else None

    def timed(self, seconds: float, ledger: Ledger, what: str) -> tuple[list[float], list[float]]:
        """Wall-clock trials/s and slowdown of each run that matched the reference.

        Runs repeat for ``seconds``.  Each is bracketed by calibration
        passes; its slowdown is their mean.
        """
        rates, slowdowns, runs = [], [], 0
        deadline = time.perf_counter() + seconds
        before = self.calibration.slowdown()
        while runs == 0 or time.perf_counter() < deadline:
            elapsed, code, data = self.call(self.argv)
            after = self.calibration.slowdown()
            runs += 1
            if code != 0:
                problems = [f"exit code {code}"]
            elif data != self.reference:
                problems = ["CSV differs from the same-seed warm-up run"]
            elif not self.reference_ok:
                problems = ["CSV fails the output checks, as the warm-up run did"]
            else:
                problems = []
            if ledger.record(f"{what} run {runs}", problems):
                rates.append(self.trials_per_run / elapsed)
                slowdowns.append((before + after) / 2)
            before = after
        return rates, slowdowns

    def check_workers(self, ledger: Ledger) -> None:
        """Untimed: a small run must be byte-identical under 1 and 2 workers."""
        small = self.argv + ["--set", "scenario.snr_db=" + ",".join(map(str, SMALL_GRID))]
        _, code, one = self.call(small)
        ledger.record("workers=1 check run", self.problems(code, one, list(SMALL_GRID)))
        two_argv = list(small)
        two_argv[two_argv.index("--workers") + 1] = "2"
        _, code, two = self.call(two_argv)
        problems = [f"exit code {code}"] if code else []
        if not problems and two != one:
            problems = ["CSV under --workers 2 differs from --workers 1"]
        ledger.record("workers=2 check run", problems)


def setup_time(preset: str, seed: int, trials: int, ledger: Ledger, what: str) -> float | None:
    """Set-up seconds measured in one fresh process, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), preset, str(seed), str(trials)],
        capture_output=True, text=True, timeout=120,
    )
    problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"] if proc.returncode else []
    if not ledger.record(what, problems):
        return None
    return float(proc.stdout.strip().splitlines()[-1])


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS this process has loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return {}
    counts = {}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(lib).name] = fn()
                break
    return counts


def environment(workload: str, seed: int, trials: int) -> dict:
    import numpy
    import scipy

    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "cirauth").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trials": trials,
        "workers": 1,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g}, max {max(values):.6g}"


def bench(args, work: Path) -> dict:
    from cirauth import cli

    import calibrate
    import checks
    import tracer

    preset, trials = WORKLOADS[args.workload]
    preset_values = checks.read_preset(SRC / "cirauth" / "presets" / f"{preset}.cfg")
    seed = int(preset_values["scenario.seed"]) if args.seed is None else args.seed
    env = environment(args.workload, seed, trials)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    ledger = Ledger()
    runner = Runner(cli, checks, calibrate.Calibration(), preset_values, preset, seed, trials, work)
    metrics: dict[str, tuple[float, str]] = {}
    details: dict[str, float] = {}

    if not args.trace:
        # Set-up probes alternate with slices of the timed runs, so that
        # their median samples the machine over the whole run.
        runner.warm_up(ledger)
        setup, wall, slowdowns = [], [], []
        for k in range(SETUP_SAMPLES):
            seconds = setup_time(preset, seed, trials, ledger, f"set-up probe {k + 1}")
            if seconds is not None:
                setup.append(seconds)
            rates, slows = runner.timed(args.seconds / SETUP_SAMPLES, ledger, f"slice {k + 1} timed")
            wall += rates
            slowdowns += slows
        scaled = [r * s for r, s in zip(wall, slowdowns)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["trials_per_s"] = (median(scaled), "trials/s")
        metrics["setup_s"] = (median(setup), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        details["wall_trials_per_s"] = median(wall)
        details["slowdown"] = median(slowdowns)
        details["samples"] = [[r, s] for r, s in zip(wall, slowdowns)]
        print(f"trials_per_s = {median(scaled):.6g} trials/s at reference speed ({spread(scaled)})")
        print(f"  wall-clock {median(wall):.6g} trials/s ({spread(wall)})")
        print(f"  slowdown {median(slowdowns):.6g} ({spread(slowdowns)})")
        print(f"setup_s = {median(setup):.6g} s ({spread(setup)})")
        print(f"peak_rss_mb = {peak_rss_mb:.6g} MB")
    else:
        runner.warm_up(ledger)
        wall, slowdowns = runner.timed(args.seconds / 2, ledger, "untraced")
        plain = [r * s for r, s in zip(wall, slowdowns)]
        spans = tracer.Tracer()
        with tracer.instrumented(spans):
            wall, slowdowns = runner.timed(args.seconds / 2, ledger, "traced")
        traced = [r * s for r, s in zip(wall, slowdowns)]
        layer = spans.summary(runner.trials_per_run, median(slowdowns) or 1.0)
        layer["trace.overhead_frac"] = 1.0 - median(traced) / median(plain) if plain and traced else 0.0
        details["slowdown"] = median(slowdowns)
        print(f"untraced {median(plain):.6g} trials/s at reference speed ({spread(plain)})")
        print(f"traced {median(traced):.6g} trials/s at reference speed ({spread(traced)})")
        print(f"  slowdown while traced {median(slowdowns):.6g} ({spread(slowdowns)})")
        for name in tracer.SPANS:
            print(f"  {name:34s} {layer[name + '.calls_per_trial']:10.4g} calls/trial "
                  f"{layer[name + '.us_per_call']:10.4g} us/call "
                  f"{layer[name + '.self_share']:8.4f} self share")
        for name in EXTRA_LAYER_METRICS:
            print(f"  {name} = {layer[name]:.6g}")
        for name, value in layer.items():
            metrics[name] = (value, LAYER_UNITS[name.rsplit(".", 1)[1]])
        spans.write(OUT / f"spans-{args.workload}-seed{seed}.tsv")

    if len(os.sched_getaffinity(0)) >= 2 * BLAS_THREADS:
        runner.check_workers(ledger)
    else:
        print("workers=2 check skipped: fewer than two CPUs")
    csv_sha256 = hashlib.sha256(runner.reference).hexdigest() if runner.reference else None
    print(f"csv_sha256 = {csv_sha256}")
    print(f"failed_frac = {ledger.failed / ledger.attempted:.6g} share "
          f"({ledger.failed} of {ledger.attempted} attempted)")
    for problem in ledger.problems[:20]:
        print(f"FAILED {problem}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {**result, **details, "environment": env, "csv_sha256": csv_sha256,
              "problems": ledger.problems}
    (OUT / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the preset's own)")
    parser.add_argument("--seconds", type=float, default=18.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cirauth" / "__init__.py").is_file():
        print(f"error: no cirauth sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads; set-up probes inherit them
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import cirauth

    if not Path(cirauth.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cirauth from {cirauth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        result = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
