"""Smoke test of ``tools/stage_times.py``: each preset's run profiles the engine functions it calls."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cirauth import cli, simkit

ROOT = Path(__file__).resolve().parent.parent
TOOL = str(ROOT / "tools" / "stage_times.py")
EVERY_RUN = {"standard_normal_rows", "channel_block", "measure_block", "_block_decisions", "quadratic_statistic",
             "write_csv"}
RECOVERY = {"compress", "_recover", "_batch_omp", "reconstruct_raw"}
# fig4 recovers every report; fig5's preset recovers none, as every CS variant is zero by construction
RECOVERS = ("fig4",)


@pytest.mark.parametrize("preset", cli.PRESET_NAMES)
def test_every_stage_the_preset_runs_records_calls(preset):
    proc = subprocess.run(
        [sys.executable, TOOL, "--preset", preset, "--trials", "1", "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # the run's notes are captured
    out = json.loads(proc.stdout.splitlines()[-1])
    calls = out["calls_per_run"]
    assert set(out["us_per_trial_median"]) == {*calls, "rest"}
    assert all(n > 0 for n in calls.values())
    assert EVERY_RUN <= set(calls)
    assert RECOVERY & set(calls) == (RECOVERY if preset in RECOVERS else set())
    assert out["minor_faults_per_run"] >= 0 and out["system_s_per_run"] >= 0  # the kernel's share of the run


def test_set_overrides_reach_the_run():
    # 51 atoms make fig5's majority live, so its decision vectors are recovered, which
    # the preset's are not
    proc = subprocess.run(
        [sys.executable, TOOL, "--preset", "fig5", "--trials", "1", "--repeats", "1", "--set", "cs.max_atoms=51"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])["calls_per_run"]
    assert {"compress", "_recover", "_batch_omp", "reconstruct_decisions"} <= set(calls)


@pytest.mark.parametrize("flag", ["--trials", "--repeats"])
def test_count_below_one_is_a_usage_error(flag):
    proc = subprocess.run([sys.executable, TOOL, flag, "0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert f"argument {flag}: must be at least 1" in proc.stderr


def test_failed_run_prints_its_stderr(monkeypatch, capsys):
    def config_error(*args, **kwargs):
        raise cli.ConfigError("no trials here")

    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ first
    spec = importlib.util.spec_from_file_location("stage_times", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(simkit, "estimate_curves", config_error)
    assert tool.main(["--preset", "fig2", "--trials", "1", "--repeats", "1"]) == 1
    assert capsys.readouterr().err == "error: no trials here\n"
