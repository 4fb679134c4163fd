#!/usr/bin/env python3
"""How node correlation shapes the channel ensembles, and why it matters
for compression.

Draws correlated channel matrices for a 100-antenna receiver, checks the
empirical correlation between neighboring antennas against the model
parameter, and shows how much of the stacked vector's energy a handful of
DCT coefficients capture as the correlation grows: the compressibility
the reporting channel later exploits.
"""

import numpy as np

from cirauth import ChannelConfig, dct_basis
from cirauth.channel import channel_block
from cirauth.numerics import standard_normal_rows

N, L = 100, 6
DRAWS = 300

print(f"Channel ensembles: {N} nodes x {L} taps, unit tap power, {DRAWS} draws\n")
print(f"{'rho':>5} | {'neighbor corr':>13} | {'top-60 DCT energy':>17}")
print("-" * 45)

psi = dct_basis(N * L)
normals = standard_normal_rows(1000, range(DRAWS), 2 * N * L)  # one stream per draw: alice's channel
for rho in (0.0, 0.3, 0.6, 0.9, 0.99):
    cfg = ChannelConfig(n_nodes=N, n_taps=L, rho=rho, pdp=(1.0,) * L, normalize_kronecker=False)
    num = den = 0.0
    captured = 0.0
    for h in channel_block(normals, cfg):  # stacked node-major: node 1's L taps first
        per_node = h.reshape(N, L)
        num += np.real(np.sum(per_node[:-1].conj() * per_node[1:]))
        den += np.sum(np.abs(h) ** 2)
        coeffs = psi @ h
        mags = np.sort(np.abs(coeffs))[::-1]
        captured += np.sum(mags[:60] ** 2) / np.sum(mags**2)
    print(f"{rho:>5.2f} | {num / (den * (N - 1) / N):>13.3f} | {captured / DRAWS:>16.1%}")

print(
    "\nNeighbor correlation tracks rho, and with strong correlation a few"
    "\nDCT coefficients hold most of the energy: the stacked measurement"
    "\nbecomes compressible, which is what the reporting codec relies on."
)
