"""fig3's Monte Carlo curves against references that draw no noise.

The single-node curve has a closed form: with unit pdp and no Kronecker
normalisation, node 0's H1 deviation h_eb - h_ab + noise has L iid
CN(0, 2 + sigma2) taps, so its statistic is ((2 + sigma2) / sigma2)
chi2(2L) and P_d = gammaincc(L, delta_n sigma2 / (2 (2 + sigma2))).
The correlated fusion curves are held against a conditional reference on
the engine's own channel draws (``oracles.conditional_fused_pd``): the
mean of alarm - p over the trials is zero, within 5 of its standard errors.
"""

import math

import numpy as np
from scipy import special

from cirauth import cli
from cirauth.channel import channel_block, measure_block, noise_variance
from cirauth.detect import quadratic_statistic
from cirauth.numerics import standard_normal_rows

from oracles import conditional_fused_pd, fuse

TRIALS = 4000


def _fig3(tmp_path, sets: list[str]) -> tuple[cli.ResolvedRun, dict]:
    """fig3's run with the overrides, and its CSV's P_d by (label, SNR)."""
    out = tmp_path / "fig3.csv"
    assert cli.main(["run", "--config", "fig3", "--out", str(out), *(a for s in sets for a in ("--set", s))]) == 0
    run = cli.build_run(cli.apply_overrides(cli.parse_config(*cli.load_config_file("fig3")), sets))
    assert run.scenario.channel.pdp == (1.0,) * run.scenario.channel.n_taps
    assert not run.scenario.channel.normalize_kronecker
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith(("#", "scheme,"))]
    return run, {(label, float(snr)): float(p_d) for _, label, snr, p_d, *_ in rows}


def test_single_node_pd_is_exact(tmp_path):
    run, p_d = _fig3(tmp_path, ["detector.rules=single", "scenario.snr_db=-10:2:20", f"scenario.trials={TRIALS}"])
    taps = run.scenario.channel.n_taps
    z = []
    for v in run.variants:
        for snr in run.scenario.snr_grid_db:
            sigma2 = noise_variance(snr)
            p = special.gammaincc(taps, v.threshold * sigma2 / (2.0 * (2.0 + sigma2)))
            z.append((p_d[v.label, snr] - p) / math.sqrt(p * (1.0 - p) / TRIALS))
    assert len(z) == 48
    assert max(map(abs, z)) < 5.0, z


def test_correlated_fusion_pd_matches_conditional_reference(tmp_path):
    sets = ["detector.delta_n=39,32.9", "detector.rules=or,and,majority", "scenario.snr_db=-4:4:4",
            f"scenario.trials={TRIALS}"]
    run, p_d = _fig3(tmp_path, sets)
    cfg, seed = run.scenario.channel, run.scenario.seed
    n, taps = cfg.n_nodes, cfg.n_taps
    for s, snr in enumerate(run.scenario.snr_grid_db):
        sigma2 = noise_variance(snr)
        # the engine's H1 (eve) trials at SNR index s
        normals = standard_normal_rows(seed, [(s << 33) | (1 << 32) | t for t in range(TRIALS)], 6 * n * taps)
        d = measure_block(normals, cfg, np.ones(TRIALS, dtype=bool), np.full(TRIALS, sigma2))
        stats = quadratic_statistic(d.reshape(-1, n, taps), 1.0 / sigma2)
        k = 2 * n * taps
        h_ab, h_eb = channel_block(normals[:, :k], cfg), channel_block(normals[:, k : 2 * k], cfg)
        mean_d = (h_eb - h_ab).reshape(-1, n, taps)  # d given the channels
        for v in run.variants:
            alarm = fuse((stats > v.threshold).astype(np.int64), v.rule)
            assert alarm.sum() / TRIALS == p_d[v.label, snr]  # these are the engine's trials
            gap = alarm - conditional_fused_pd(mean_d, sigma2, v.threshold, v.rule)
            assert abs(gap.mean()) <= 5.0 * math.sqrt(gap.var() / TRIALS), (v.label, snr, gap.mean())
