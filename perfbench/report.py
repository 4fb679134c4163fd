#!/usr/bin/env python3
"""Run every workload of ``run.py`` in its own process and print one table.

    python3 perfbench/report.py                # end-to-end metrics
    python3 perfbench/report.py --trace 1      # per-layer metrics

Each workload uses its preset's own seed unless ``--seed`` is given.
``failed_frac`` is ``failed / attempted`` from each run's result line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import EXTRA_LAYER_METRICS, WORKLOADS  # noqa: E402
from tracer import SPANS  # noqa: E402


def run_workload(workload: str, seed, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}

    def cell(result, name):
        metric = result["metrics"][name]
        return f"{metric['value']:.4g} {metric['unit']}"

    if not args.trace:
        print(f"{'workload':22s} {'trials_per_s':>18s} {'setup_s':>10s} {'peak_rss_mb':>12s} {'failed_frac':>14s}")
        for workload, r in results.items():
            failed = f"{r['failed'] / r['attempted']:.3g} share"
            print(f"{workload:22s} {cell(r, 'trials_per_s'):>18s} {cell(r, 'setup_s'):>10s} "
                  f"{cell(r, 'peak_rss_mb'):>12s} {failed:>14s}")
        return 0 if all(r["correct"] for r in results.values()) else 1

    for workload, r in results.items():
        print(f"{workload}  (failed_frac {r['failed'] / r['attempted']:.3g} share)")
        print(f"  {'span':34s} {'calls/trial':>12s} {'us/call':>11s} {'self share':>11s}")
        for span in SPANS:
            m = r["metrics"]
            print(f"  {span:34s} {m[span + '.calls_per_trial']['value']:12.4g} "
                  f"{m[span + '.us_per_call']['value']:11.4g} {m[span + '.self_share']['value']:11.4f}")
        for name in EXTRA_LAYER_METRICS:
            print(f"  {name} = {cell(r, name)}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
