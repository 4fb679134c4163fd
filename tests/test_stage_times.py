"""Smoke test of ``tools/stage_times.py``: every timer it wraps is still called by the engine."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cirauth import cli

ROOT = Path(__file__).resolve().parent.parent
# the presets whose runs call Batch-OMP; fig5's preset has none, as every variant is zero by construction
RECOVERS = ("fig4",)


@pytest.mark.parametrize("preset", cli.PRESET_NAMES)
def test_every_stage_the_preset_runs_records_calls(preset):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"), "--preset", preset, "--trials", "1", "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr  # a wrapped name the program lacks fails here
    out = json.loads(proc.stdout.splitlines()[-1])
    idle = set() if preset in RECOVERS else {"_batch_omp"}
    calls = out["calls_per_run"]
    assert set(out["us_per_trial_median"]) == {*calls, "rest"}
    assert {name for name, n in calls.items() if n == 0} == idle
