"""Distributed physical-layer authentication simulator.

A numpy/scipy library (plus a small CLI) that models N sensor nodes
fingerprinting a transmitter by its channel impulse response, local and
fusion-center Neyman-Pearson tests, hard-decision fusion, and a
compressed-sensing reporting channel, and estimates detection/false-alarm
curves by Monte Carlo.
"""

from .numerics import (
    DecompositionError,
    cholesky,
    sample_complex_gaussian,
    stream,
)
from .channel import (
    ChannelConfig,
    exp_correlation_matrix,
    stack_columns,
)
from .detect import (
    FusionKind,
    FusionRule,
    fuse,
    fused_pfa_analytic,
    solve_threshold,
)
from .sparse import (
    CsCodec,
    RecoveryError,
    compress,
    dct_basis,
    gaussian_phi,
    identity_basis,
    omp,
    reconstruct_decisions,
    reconstruct_raw,
)
from .simkit import (
    CurveComparisonError,
    CsCodecConfig,
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
    "DecompositionError",
    "DetectionCurve",
    "FusionKind",
    "FusionRule",
    "RecoveryError",
    "Scenario",
    "Scheme",
    "Variant",
    "cholesky",
    "compress",
    "dct_basis",
    "estimate_curves",
    "exp_correlation_matrix",
    "fuse",
    "fused_pfa_analytic",
    "gaussian_phi",
    "identity_basis",
    "omp",
    "reconstruct_decisions",
    "reconstruct_raw",
    "sample_complex_gaussian",
    "snr_margin",
    "solve_threshold",
    "stack_columns",
    "stream",
    "__version__",
]
