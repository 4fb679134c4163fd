"""The public names the package promises, and the ones the demos and README rely on.

Every demo's imports are read with ``ast``, and every demo but the slow
CS trade-off sweep (about 17 s) also runs in a fresh interpreter and
must exit 0, so a changed signature under an unchanged name fails here.
The others take 1-2 s each on a 2-core VM.  README's fenced ``python``
example runs the same way (about 4 s).
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cirauth

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW_DEMOS = {"cs_reporting_tradeoff.py"}


def _run_fresh(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports cirauth from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def _cirauth_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every ``from cirauth[.sub] import name`` in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cirauth"
        for alias in node.names
    ]


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = _cirauth_imports(path)
    assert imports, f"{path.name} imports nothing from cirauth"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("path", [p for p in DEMOS if p.name not in SLOW_DEMOS], ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    proc = _run_fresh([str(path)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_example_runs(tmp_path):
    (example,) = re.findall(r"(?ms)^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"))
    proc = _run_fresh(["-c", example], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{")  # the example prints its curve's P_d per SNR point


def test_all_entries_resolve():
    missing = [name for name in cirauth.__all__ if not hasattr(cirauth, name)]
    assert not missing
    assert len(set(cirauth.__all__)) == len(cirauth.__all__)
