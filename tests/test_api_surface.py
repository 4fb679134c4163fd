"""The public names the package promises, and the ones the demos rely on.

The demos take minutes to run, so their imports are read with ``ast``
instead of executing them.
"""

import ast
import importlib
from pathlib import Path

import pytest

import cirauth

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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


def test_all_entries_resolve():
    missing = [name for name in cirauth.__all__ if not hasattr(cirauth, name)]
    assert not missing
    assert len(set(cirauth.__all__)) == len(cirauth.__all__)
