"""Secure-degrees-of-freedom toolkit for the two-transmitter MIMO MAC wiretap channel.

Closed-form sum-SDoF evaluation, jamming precoder synthesis (nullspace /
aligned / random), zero-forcing reception, and Monte Carlo verification
that measured rate slopes match the formula while eavesdropper leakage
stays bounded.
"""

from .channel import (
    ChannelRealization,
    EveMode,
    RngStream,
    SignalParams,
    sample_channels,
)
from .errors import (
    DimensionMismatch,
    InfeasibleAllocation,
    InsufficientData,
    InvalidMatrix,
    NumericalFailure,
    SdofLabError,
    Unsolvable,
)
from .precoding import (
    PrecoderSet,
    build_precoders,
    leakage_rank,
)
from .sdof import (
    AntennaConfig,
    AuditReport,
    JammingAllocation,
    JammingMethod,
    Regime,
    RegimeLabel,
    SDoFValue,
    allocate_jamming,
    audit_allocation,
    classify,
    regime_table,
    sum_sdof,
    upper_bounds,
)
from .simulate import DofEstimate, SweepResult, estimate_dof, eve_leakage, legit_rate, sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # closed form and allocation
    "AntennaConfig",
    "Regime",
    "RegimeLabel",
    "SDoFValue",
    "JammingMethod",
    "JammingAllocation",
    "AuditReport",
    "upper_bounds",
    "sum_sdof",
    "classify",
    "allocate_jamming",
    "audit_allocation",
    "regime_table",
    # channel model
    "EveMode",
    "RngStream",
    "SignalParams",
    "ChannelRealization",
    "sample_channels",
    # precoding
    "PrecoderSet",
    "build_precoders",
    "leakage_rank",
    # Monte Carlo
    "SweepResult",
    "DofEstimate",
    "legit_rate",
    "eve_leakage",
    "sweep",
    "estimate_dof",
    # errors
    "SdofLabError",
    "InvalidMatrix",
    "DimensionMismatch",
    "Unsolvable",
    "InfeasibleAllocation",
    "NumericalFailure",
    "InsufficientData",
]
