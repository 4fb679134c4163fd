"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are fixed here, not tuned at runtime; Monte Carlo
bounds are 5 binomial standard deviations unless stated otherwise.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from cirauth import cli, simkit
from cirauth.channel import ChannelConfig, measure_block, noise_variance
from cirauth.detect import (
    FusionKind,
    FusionRule,
    fuse,
    fused_pfa_analytic,
    quadratic_statistic,
    solve_threshold,
)
from cirauth.numerics import sample_complex_gaussian, standard_normal_rows, stream
from cirauth.simkit import Scheme, snr_margin
from cirauth.sparse import CsCodec, compress, gaussian_phi, omp, reconstruct_raw


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _preset_run(name: str, overrides: list[str]) -> cli.ResolvedRun:
    text, display = cli.load_config_file(name)
    values = cli.apply_overrides(cli.parse_config(text, display), overrides)
    return cli.build_run(values)


def test_01_threshold_table(capsys):
    start = time.perf_counter()
    rc = cli.main(["thresholds", "--alpha", "1e-2,1e-3,1e-4", "--dof", "12"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()[1:]]
    got = {float(r[0]): float(r[2]) for r in rows}
    ok = (
        rc == 0
        and abs(got[1e-2] - 26.217) <= 0.05
        and abs(got[1e-3] - 32.909) <= 0.05
        and abs(got[1e-4] - 39.13) <= 0.3
        and elapsed < 1.0
    )
    with capsys.disabled():
        _verdict(1, "threshold table", ok, f"{got}, {elapsed * 1e3:.0f} ms")


def test_02_local_false_alarm_calibration(capsys):
    start = time.perf_counter()
    n_taps, trials, sigma2 = 6, 1_000_000, 1.0
    chunk = 100_000
    results = {}
    for s, alpha in enumerate((0.01, 0.001, 0.0001)):
        delta = solve_threshold(alpha, 2 * n_taps)
        alarms = 0
        for c in range(trials // chunk):
            noise = sample_complex_gaussian(stream(8100 + s, c), chunk * n_taps, sigma2)
            u = quadratic_statistic(noise.reshape(chunk, n_taps), np.zeros(n_taps), 1.0 / sigma2) > delta
            alarms += int(u.sum())
        emp = alarms / trials
        sig = math.sqrt(alpha * (1 - alpha) / trials)
        results[alpha] = (emp, abs(emp - alpha) < 5 * sig)
    elapsed = time.perf_counter() - start
    ok = all(v[1] for v in results.values()) and elapsed < 60.0
    detail = ", ".join(f"{a:g}->{v[0]:.2e}" for a, v in results.items()) + f", {elapsed:.0f} s"
    with capsys.disabled():
        _verdict(2, "local P_fa calibration", ok, detail)


def test_03_fc_statistic_distribution(capsys):
    n_nodes, n_taps, trials, sigma2 = 10, 6, 100_000, 0.73
    dim = n_nodes * n_taps
    stats_all = []
    chunk = 10_000
    for c in range(trials // chunk):
        v = sample_complex_gaussian(stream(8200, c), chunk * dim, sigma2).reshape(chunk, dim)
        stats_all.append(quadratic_statistic(v, np.zeros(dim), 1.0 / sigma2))
    sample = np.concatenate(stats_all)
    result = stats.kstest(sample, stats.chi2(2 * dim).cdf)
    ok = result.pvalue > 0.001
    with capsys.disabled():
        _verdict(3, "H0 statistic is chi2(2NL)", ok, f"KS p-value {result.pvalue:.4f}")


def test_04_fusion_identities(capsys):
    alpha, n, trials, chunk = 0.01, 10, 1_000_000, 50_000
    delta = solve_threshold(alpha, 12)
    counts = {FusionKind.OR: 0, FusionKind.MAJORITY: 0}
    for c in range(trials // chunk):
        noise = sample_complex_gaussian(stream(8300, c), chunk * n * 6, 1.0).reshape(chunk, n, 6)
        stat = 2.0 * np.sum(np.abs(noise) ** 2, axis=2)
        u = (stat > delta).astype(np.int64)
        for kind in counts:
            counts[kind] += int(np.count_nonzero(fuse(u, FusionRule(kind=kind))))
    agree = {}
    for kind, count in counts.items():
        emp = count / trials
        want = fused_pfa_analytic(alpha, n, FusionRule(kind=kind))
        sig = math.sqrt(want * (1 - want) / trials)
        agree[kind.value] = (emp, want, abs(emp - want) < 5 * sig)

    dominance = True
    for nn in range(1, 13):
        bits = np.arange(2**nn)[:, None]
        u = ((bits >> np.arange(nn)) & 1).astype(np.int64)
        d_or = fuse(u, FusionRule(kind=FusionKind.OR))
        d_maj = fuse(u, FusionRule(kind=FusionKind.MAJORITY))
        d_and = fuse(u, FusionRule(kind=FusionKind.AND))
        dominance &= bool(np.all(d_maj[d_and]) and np.all(d_or[d_maj]))

    ok = all(v[2] for v in agree.values()) and dominance
    detail = (
        ", ".join(f"{k}: emp {v[0]:.3e} vs {v[1]:.3e}" for k, v in agree.items())
        + f", dominance {dominance}"
    )
    with capsys.disabled():
        _verdict(4, "fusion identities", ok, detail)


def test_05_fig2_trend(capsys):
    start = time.perf_counter()
    run = _preset_run("fig2", ["scenario.trials=10000"])
    curves = simkit.estimate_curves(run.scenario, run.variants)
    elapsed = time.perf_counter() - start

    by_label = {c.label: c for c in curves}
    target = by_label["delta=340"]
    idx = target.snr_db.index(5.0)
    pd_at_5db = target.p_d[idx]

    monotone = True
    ordered = [by_label[f"delta={d:g}"] for d in (260, 280, 300, 320, 340)]
    for lo, hi in zip(ordered, ordered[1:]):
        for i in range(len(lo.p_d)):
            slack = 3 * (lo.p_d_stderr[i] + hi.p_d_stderr[i])
            monotone &= hi.p_d[i] <= lo.p_d[i] + slack

    ok = pd_at_5db >= 0.98 and monotone and elapsed < 300.0
    with capsys.disabled():
        _verdict(
            5,
            "raw-measurement trend",
            ok,
            f"P_d(5dB, delta=340) = {pd_at_5db:.4f}, monotone in delta: {monotone}, {elapsed:.0f} s",
        )


def test_06_omp_recovery(capsys):
    start = time.perf_counter()
    m, n, k = 480, 600, 30
    codec = CsCodec(gaussian_phi(stream(8400, 0), m, n), basis="dct", max_atoms=k, residual_tol=1e-12)
    failures = 0
    for t in range(100):
        rng = stream(8401, t)
        coeffs = np.zeros(n)
        support = rng.choice(n, k, replace=False)
        coeffs[support] = rng.standard_normal(k)
        y = codec.dictionary @ coeffs
        got = omp(y, codec)
        support_ok = set(np.nonzero(got)[0]) == set(support)
        if not support_ok or np.abs(got - coeffs).max() >= 1e-8:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures <= 1 and elapsed < 60.0
    with capsys.disabled():
        _verdict(6, "OMP sparse recovery", ok, f"{100 - failures}/100 exact, {elapsed:.1f} s")


def test_07_cs_snr_margin(capsys):
    start = time.perf_counter()
    run = _preset_run(
        "fig4",
        [
            "scenario.trials=1200",
            "scenario.snr_db=0:0.5:5",
            "detector.delta=5000",
        ],
    )
    cs_curve = simkit.estimate_curves(run.scenario, run.variants)[0]
    plain = replace(run.scenario, scheme=Scheme.FC_RAW, codec=None)
    raw_curve = simkit.estimate_curves(plain, run.variants)[0]
    margin = snr_margin(cs_curve, raw_curve, 0.9)
    elapsed = time.perf_counter() - start
    ok = 0.0 < margin <= 1.5
    with capsys.disabled():
        _verdict(7, "CS reporting SNR margin", ok, f"margin {margin:.2f} dB, {elapsed:.0f} s")


def test_08_correlation_error_monotonicity(capsys):
    codec = CsCodec(gaussian_phi(stream(8500, 0), 480, 600), basis="dct", max_atoms=60)
    normals = standard_normal_rows(8501, range(500), 6 * 100 * 6)  # identical substreams across rho: paired draws
    alice, sigma2 = np.zeros(500, dtype=bool), np.full(500, noise_variance(20.0))
    means = []
    for rho in (0.1, 0.5, 0.9):
        cfg = ChannelConfig(
            n_nodes=100, n_taps=6, rho=rho, pdp=(1.0,) * 6, normalize_kronecker=False
        )
        total = 0.0
        for z in measure_block(normals, cfg, alice, sigma2)[1]:
            z_hat = reconstruct_raw(compress(z, codec), codec)
            total += np.sum(np.abs(z_hat - z) ** 2, axis=-1)
        means.append(total / 500)
    ok = means[0] > means[1] > means[2]
    detail = " > ".join(f"{m:.1f}" for m in means)
    with capsys.disabled():
        _verdict(8, "reconstruction error falls with correlation", ok, detail)


def test_09_determinism_across_workers(capsys, tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w3.csv"
    overrides = ["--set", "scenario.trials=300"]
    rc1 = cli.main(["run", "--config", "fig2", "--out", str(a), "--workers", "1", *overrides])
    rc2 = cli.main(["run", "--config", "fig2", "--out", str(b), "--workers", "3", *overrides])
    identical = a.read_bytes() == b.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    with capsys.disabled():
        _verdict(9, "byte-identical CSVs across worker counts", ok, f"identical: {identical}")
