"""Distributed physical-layer authentication simulator.

A numpy/scipy library (plus a small CLI) that models N sensor nodes
fingerprinting a transmitter by its channel impulse response, local and
fusion-center Neyman-Pearson tests, hard-decision fusion, and a
compressed-sensing reporting channel, and estimates detection/false-alarm
curves by Monte Carlo.
"""

from .numerics import (
    DecompositionError,
    Rng,
    chi2_cdf,
    chi2_quantile,
    cholesky,
    sample_complex_gaussian,
)
from .channel import (
    ChannelConfig,
    ChannelEnsemble,
    MeasurementBatch,
    NoiseModel,
    Occupant,
    draw_channel,
    exp_correlation_matrix,
    measure,
    stack_columns,
)
from .detect import (
    H0,
    H1,
    DetectorConfig,
    FusionKind,
    FusionRule,
    fc_raw_statistic,
    fuse,
    fused_pfa_analytic,
    local_decide,
    solve_threshold,
)
from .sparse import (
    CompressedReport,
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
    estimate_curve,
    estimate_curves,
    snr_margin,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "ChannelEnsemble",
    "CompressedReport",
    "CsCodec",
    "CsCodecConfig",
    "CurveComparisonError",
    "DecompositionError",
    "DetectionCurve",
    "DetectorConfig",
    "FusionKind",
    "FusionRule",
    "H0",
    "H1",
    "MeasurementBatch",
    "NoiseModel",
    "Occupant",
    "RecoveryError",
    "Rng",
    "Scenario",
    "Scheme",
    "Variant",
    "chi2_cdf",
    "chi2_quantile",
    "cholesky",
    "compress",
    "dct_basis",
    "draw_channel",
    "estimate_curve",
    "estimate_curves",
    "exp_correlation_matrix",
    "fc_raw_statistic",
    "fuse",
    "fused_pfa_analytic",
    "gaussian_phi",
    "identity_basis",
    "local_decide",
    "measure",
    "omp",
    "reconstruct_decisions",
    "reconstruct_raw",
    "sample_complex_gaussian",
    "snr_margin",
    "solve_threshold",
    "stack_columns",
    "__version__",
]
