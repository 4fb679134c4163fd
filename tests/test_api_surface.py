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
    """Run ``python -W error *args`` in a fresh interpreter that imports cirauth from the checkout.

    Warnings are errors, so a warning (an OMP breakdown, say) fails the run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def _cirauth_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for every ``from cirauth[.sub] import name`` in Python source."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cirauth"
        for alias in node.names
    ]


def _readme_example() -> str:
    (example,) = re.findall(r"(?ms)^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"))
    return example


def _src_reads() -> set[str]:
    """Every name or attribute read in a ``cirauth`` module other than ``__init__.py``."""
    reads = set()
    for path in (ROOT / "src" / "cirauth").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return reads


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = _cirauth_imports(path.read_text(encoding="utf-8"))
    assert imports, f"{path.name} imports nothing from cirauth"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("path", [p for p in DEMOS if p.name not in SLOW_DEMOS], ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    proc = _run_fresh([str(path)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_example_runs(tmp_path):
    proc = _run_fresh(["-c", _readme_example()], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{")  # the example prints its curve's P_d per SNR point


def test_all_entries_resolve():
    missing = [name for name in cirauth.__all__ if not hasattr(cirauth, name)]
    assert not missing
    assert len(set(cirauth.__all__)) == len(cirauth.__all__)


def test_public_names_have_users():
    # a name only tests read is not worth exporting
    used = _src_reads()
    for source in [p.read_text(encoding="utf-8") for p in DEMOS] + [_readme_example()]:
        used |= {name for _, name in _cirauth_imports(source)}
    unused = [name for name in cirauth.__all__ if not name.startswith("__") and name not in used]
    assert not unused, f"exported but read by no module, demo or README example: {unused}"
