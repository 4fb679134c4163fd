"""Distributed physical-layer authentication simulator.

A numpy/scipy library (plus a small CLI) that models N sensor nodes
fingerprinting a transmitter by its channel impulse response, local and
fusion-center Neyman-Pearson tests, hard-decision fusion, and a
compressed-sensing reporting channel, and estimates detection/false-alarm
curves by Monte Carlo.
"""

from .numerics import stream
from .channel import (
    ChannelConfig,
    exp_correlation_matrix,
    stack_columns,
)
from .detect import (
    FusionKind,
    FusionRule,
    fused_pfa_analytic,
    solve_threshold,
)
from .sparse import (
    CsCodec,
    CsCodecConfig,
    compress,
    dct_basis,
    gaussian_phi,
    reconstruct_decisions,
    reconstruct_raw,
)
from .simkit import (
    CurveComparisonError,
    DetectionCurve,
    Scenario,
    Scheme,
    Variant,
    estimate_curves,
    snr_margin,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "CsCodec",
    "CsCodecConfig",
    "CurveComparisonError",
    "DetectionCurve",
    "FusionKind",
    "FusionRule",
    "Scenario",
    "Scheme",
    "Variant",
    "compress",
    "dct_basis",
    "estimate_curves",
    "exp_correlation_matrix",
    "fused_pfa_analytic",
    "gaussian_phi",
    "reconstruct_decisions",
    "reconstruct_raw",
    "snr_margin",
    "solve_threshold",
    "stack_columns",
    "stream",
    "__version__",
]
