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
    channel_use,
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
    nullspace_jamming,
    random_jamming,
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
from .simulate import DofEstimate, RateSample, estimate_dof, eve_leakage, legit_rate, sweep
from .subspaces import (
    Subspace,
    complement_projector,
    complete_orthonormal,
    intersect,
    nullspace,
    orthonormal_basis,
    solve_into,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # subspace algebra
    "Subspace",
    "orthonormal_basis",
    "nullspace",
    "intersect",
    "solve_into",
    "complement_projector",
    "complete_orthonormal",
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
    "channel_use",
    # precoding
    "PrecoderSet",
    "random_jamming",
    "nullspace_jamming",
    "build_precoders",
    "leakage_rank",
    # Monte Carlo
    "RateSample",
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
