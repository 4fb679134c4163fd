#!/usr/bin/env python3
"""What the compressed reporting channel costs in detection performance.

A 100-antenna relay compresses its length-600 stacked measurement to
M=480 values (20% fewer channel uses) before the fusion-center test.
Both curves below share identical channel and noise draws, so the gap is
purely the reconstruction error: the compressed scheme needs a fraction
of a dB more SNR for the same detection probability.
"""

import numpy as np

from cirauth import (
    ChannelConfig,
    CsCodecConfig,
    Scenario,
    Scheme,
    Variant,
    estimate_curves,
    snr_margin,
)

TRIALS = 400
GRID = tuple(np.arange(0.0, 5.5, 0.5))

scenario = Scenario(
    scheme=Scheme.FC_RAW_CS,
    channel=ChannelConfig(n_nodes=100, n_taps=6, rho=0.9, pdp=(1.0,) * 6, normalize_kronecker=False),
    snr_grid_db=GRID,
    trials=TRIALS,
    seed=6000,
    codec=CsCodecConfig(m=480, basis="dct", max_atoms=60),
)

print(f"N=100, L=6, delta=5000, {TRIALS} trials/point (takes ~15 s)\n")
variants = [Variant("delta=5000", 5000.0)]
cs, raw = estimate_curves(scenario, variants, uncompressed_twin=True)

print(f"{'SNR dB':>7} | {'P_d raw':>8} | {'P_d compressed':>14}")
print("-" * 36)
for i, snr in enumerate(GRID):
    print(f"{snr:>7.1f} | {raw.p_d[i]:>8.3f} | {cs.p_d[i]:>14.3f}")

margin = snr_margin(cs, raw, 0.9)
print(f"\nSNR margin at P_d = 0.9: {margin:.2f} dB for a 20% reporting saving")
print("(correlation rho=0.9 keeps the stacked vector compressible enough that")
print("the greedy recovery loses a little less than the naive cost of")
print("10*log10(600/480) = 0.97 dB).")
