#!/usr/bin/env python3
"""Detection probability vs SNR for the two non-compressed schemes.

A trimmed-down version of the bundled fig2/fig3 presets: the fusion
center testing stacked raw measurements at several thresholds, then
local decisions combined under each fusion rule.  Counts are exact
reproductions of what `cirauth run --config fig2` / `fig3` compute,
just with fewer trials.
"""

import numpy as np

from cirauth import (
    ChannelConfig,
    DetectorConfig,
    FusionKind,
    FusionRule,
    Scenario,
    Scheme,
    Variant,
    estimate_curves,
)

TRIALS = 2000
GRID = tuple(np.arange(-10.0, 11.0, 2.5))
CHANNEL = ChannelConfig(n_nodes=10, n_taps=6, rho=0.9, pdp=(1.0,) * 6, normalize_kronecker=False)


def show(title, curves):
    print(title)
    header = "SNR dB  " + "  ".join(f"{c.label:>18}" for c in curves)
    print(header)
    for i, snr in enumerate(curves[0].snr_db):
        row = f"{snr:>6.1f}  " + "  ".join(f"{c.p_d[i]:>18.3f}" for c in curves)
        print(row)
    print()


fc = Scenario(
    scheme=Scheme.FC_RAW,
    channel=CHANNEL,
    detector=DetectorConfig(delta=340.0),
    snr_grid_db=GRID,
    trials=TRIALS,
    seed=5000,
)
fc_variants = [
    Variant(label=f"delta={d:g}", detector=DetectorConfig(delta=d)) for d in (260.0, 300.0, 340.0)
]
show("Fusion center on raw measurements (P_d per threshold)", estimate_curves(fc, fc_variants))

local = Scenario(
    scheme=Scheme.LOCAL_FUSION,
    channel=CHANNEL,
    detector=DetectorConfig(delta_n=26.2),
    fusion=FusionRule(kind=FusionKind.MAJORITY),
    snr_grid_db=GRID,
    trials=TRIALS,
    seed=5001,
)
local_variants = [
    Variant(label=k.value, detector=DetectorConfig(delta_n=26.2), rule=FusionRule(kind=k))
    for k in (FusionKind.OR, FusionKind.MAJORITY, FusionKind.AND, FusionKind.SINGLE)
]
show(
    "Local decisions, per-node threshold 26.2 (P_fa,n = 0.01)",
    estimate_curves(local, local_variants),
)

print("Lower thresholds buy detection with false alarms.  OR dominates")
print("majority dominates AND pointwise; majority overtakes the single node")
print("once per-node detection clears ~50%, while AND pays for its tiny P_fa.")
