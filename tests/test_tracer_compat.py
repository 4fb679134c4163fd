"""``perfbench/tracer.py`` still instruments a preset run of the current program.

The tracer wraps names in ``cirauth``'s modules from outside ``src/``.  It
skips a name that is gone, but it dereferences ``channel.NoiseModel`` while
it builds its patch list, so deleting the placeholder would crash every
``perfbench/run.py --trace 1`` run.  This test imports the tracer as it is,
runs one small preset under it (fig2, and fig5 with 51 atoms, whose
majority curves can fire, so its run goes through ``sparse``), and checks
that every attribute it patched is restored afterwards.
"""

import importlib.util
from pathlib import Path

import pytest

from cirauth import channel, cli, detect, simkit, sparse

ROOT = Path(__file__).resolve().parent.parent
# fig5's preset recovers nothing (every variant is zero by construction); 51 atoms make majority live
SETS = {"fig5": ["cs.max_atoms=51"]}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    """Every attribute of the traced modules and of the classes they define, by (owner, name)."""
    modules = (channel, cli, detect, simkit, sparse)
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__]
    return {(f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__, name): value
            for owner in (*modules, *classes) for name, value in vars(owner).items()}


@pytest.mark.parametrize("preset", ["fig2", "fig5"])
def test_traced_preset_run_exits_0_and_restores_every_patch(preset, tmp_path):
    tracer_module = _load_tracer()
    before = _attributes()
    tracer = tracer_module.Tracer()
    with tracer_module.instrumented(tracer):
        during = _attributes()
        rc = cli.main([
            "run", "--config", preset, "--out", str(tmp_path / "o.csv"), "--workers", "1",
            "--set", "scenario.trials=1", "--set", "scenario.snr_db=0",
            *(a for s in SETS.get(preset, []) for a in ("--set", s)),
        ])
    assert rc == 0
    patched = {key for key, value in during.items() if value is not before.get(key)}
    assert ("cirauth.cli", "main") in patched and ("cirauth.simkit", "estimate_curves") in patched
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["cli.main"] == 1 and calls["simkit.estimate_curves"] == 1
    if preset == "fig5":  # the compressed decision vectors went through the traced sparse layer
        assert calls["sparse.compress"] >= 1 and calls["sparse.reconstruct_decisions"] >= 1
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
