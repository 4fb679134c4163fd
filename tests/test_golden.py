"""The benchmark's preset CSVs, byte for byte.

fig2-fig5 at the benchmark's reduced trial counts and preset seeds must
hash to the reference sha256 values listed in ``perfbench/README.md``,
serially and with two worker processes.  An engine change that renumbers
a draw, reorders a reduction or perturbs a report's bits shows here.
"""

import hashlib

import pytest

from cirauth import cli

GOLDEN = {
    ("fig2", 50): "373fe319a5b5d2bc2b83037027bf2a2f7fadd1a3af310245b0c71d4641fb59c1",
    ("fig3", 10): "b745af9097e066cd63d00bd3891f9f3ddfcf325b5a8da8f56821605962e18a39",
    ("fig4", 1): "a93d01ed38eb8a558601c7d60f5d3ab1e26d6b657eb674aa249326b87b919b3d",
    ("fig5", 2): "458a6c4c0cbf7bb1758a6611b79da52f3f7c86d6c031c21c0197e2840abf227a",
}


@pytest.mark.parametrize("preset, trials", sorted(GOLDEN))
def test_preset_csv_matches_reference(preset, trials, tmp_path, capsys):
    digests = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.csv"
        argv = ["run", "--config", preset, "--out", str(out), "--workers", str(workers),
                "--set", f"scenario.trials={trials}"]
        assert cli.main(argv) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == [GOLDEN[preset, trials]] * 2
