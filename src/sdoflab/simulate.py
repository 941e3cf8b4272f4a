"""Monte Carlo rate evaluation and high-SNR slope estimation.

Per trial, channels are drawn once and precoders built once; each power
grid point then costs three log-determinant evaluations (legitimate rate
plus the two sides of the leakage ratio).  Rates are in bits per channel
use (base-2 logs, averaged over slots for two-slot schemes).  Trials are
independent work items keyed by (master seed, trial index), so the sweep
can run them on any number of threads with bit-identical results.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels as _kernels
from .channel import (
    ChannelRealization,
    EveMode,
    RngStream,
    SignalParams,
    channel_use,
    sample_channels,
)
from .errors import InsufficientData, NumericalFailure
from .precoding import PrecoderSet, build_precoders
from .sdof import AntennaConfig, allocate_jamming

__all__ = [
    "RateSample",
    "DofEstimate",
    "legit_rate",
    "eve_leakage",
    "sweep",
    "estimate_dof",
    "HALF_LOG2_PER_DB",
]

# d(0.5 * log2 P) / d(P_dB): converts dB grids to the regression abscissa.
HALF_LOG2_PER_DB = float(np.log2(10.0) / 20.0)


@dataclass(frozen=True)
class RateSample:
    """One Monte Carlo draw: power level, trial index, and the two rates."""

    p_db: float
    trial: int
    legit_rate: float
    eve_leakage: float


@dataclass(frozen=True)
class DofEstimate:
    """Least-squares slope of mean rate against 0.5 * log2(P)."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]


def _logdet(e: np.ndarray) -> float:
    try:
        value = _kernels.logdet_eye_plus_gram(e)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalFailure(f"log-determinant evaluation failed: {exc}") from exc
    # An overflowed power gives an infinite block, whose SVD returns NaN.
    if not math.isfinite(value):
        raise NumericalFailure(f"log-determinant evaluation failed: result is {value}")
    return value


def _scaled_blocks(channels, precoders, power: float, sigma2: float) -> np.ndarray:
    """Concatenate sqrt(power/sigma2) * (channel @ precoder) blocks."""
    cols = [ch @ v for ch, v in zip(channels, precoders) if v.shape[1]]
    if not cols:
        rows = channels[0].shape[0]
        return np.zeros((rows, 0), dtype=np.complex128)
    return np.sqrt(power / sigma2) * np.hstack(cols)


def per_stream_powers(pre: PrecoderSet, sig: SignalParams) -> tuple[float, float]:
    """Per-stream legitimate and jamming powers implied by a precoder set.

    The legitimate budget (1 - alpha) p is split evenly over the d1 + d2
    legitimate streams and the jamming budget alpha p over the jamming
    streams, normalized per channel use (slot).  Zero-stream budgets give
    zero power.
    """
    legit_cols = pre.v1_l.shape[1] + pre.v2_l.shape[1]
    jam_cols = pre.v1_j.shape[1] + pre.v2_j.shape[1]
    p_legit = (1.0 - sig.alpha) * sig.p * pre.slots / legit_cols if legit_cols else 0.0
    p_jam = sig.alpha * sig.p * pre.slots / jam_cols if jam_cols else 0.0
    return p_legit, p_jam


def legit_rate(ch: ChannelRealization, pre: PrecoderSet, sig: SignalParams) -> float:
    """Achievable legitimate sum rate after zero-forcing, in bits/channel use.

    Computes 0.5 * log2 det(I + U S U^H / sigma2) with S the received
    legitimate signal covariance, averaged over slots.  ``ch`` is on the
    precoders' slot space (``channel_use``).  Zero power, zero legitimate
    streams or a zero projector all give exactly 0 bits.
    """
    p_legit, _ = per_stream_powers(pre, sig)
    effective = _scaled_blocks(
        (pre.u @ ch.h1, pre.u @ ch.h2), (pre.v1_l, pre.v2_l), p_legit, sig.sigma2
    )
    return 0.5 * _logdet(effective) / pre.slots


def eve_leakage(ch: ChannelRealization, pre: PrecoderSet, sig: SignalParams) -> float:
    """A lower bound on the eavesdropper's mutual information, in bits/channel use.

    Computes max(0, 0.5 * (log2 det(I + S) - log2 det(I + J))), averaged
    over slots, with S and J the eavesdropper's received legitimate and
    jamming covariances over the noise variance.  The mutual information
    is log2 det(I + S + J) - log2 det(I + J), which is at least this value;
    making the two agree is open item 1 of ROADMAP.md.  ``ch`` is on the
    precoders' slot space (``channel_use``).
    """
    if ch.g1.shape[0] == 0:
        return 0.0
    p_legit, p_jam = per_stream_powers(pre, sig)
    signal = _scaled_blocks((ch.g1, ch.g2), (pre.v1_l, pre.v2_l), p_legit, sig.sigma2)
    jamming = _scaled_blocks((ch.g1, ch.g2), (pre.v1_j, pre.v2_j), p_jam, sig.sigma2)
    leak = 0.5 * (_logdet(signal) - _logdet(jamming)) / pre.slots
    return max(0.0, leak)


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        if threads < 1:
            raise ValueError("threads must be at least 1")
        return threads
    env = os.environ.get("SDOFLAB_THREADS", "")
    if env.strip():
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"SDOFLAB_THREADS must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError("SDOFLAB_THREADS must be at least 1")
        return value
    return 1


def sweep(
    config: AntennaConfig,
    sig_template: SignalParams,
    p_grid_db: Sequence[float],
    trials: int,
    master_seed: int,
    mode: EveMode,
    threads: int | None = None,
) -> list[RateSample]:
    """Monte Carlo rate samples over a power grid.

    Per trial: one channel draw and precoder build, then rates at each grid
    point k on ``channel_use`` k under eavesdropper model ``mode``.  Output is ordered by (p_db, trial) and
    depends only on the arguments, never on thread count (``threads=None``
    reads SDOFLAB_THREADS, defaulting to sequential).  An InfeasibleAllocation
    from any trial aborts the sweep: feasibility is generic, so a failure
    indicates an allocation bug rather than bad luck.
    """
    grid = [float(p) for p in p_grid_db]
    if len(grid) == 0:
        raise ValueError("p_grid_db must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("p_grid_db must be strictly increasing")
    if trials < 1:
        raise ValueError("trials must be at least 1")

    alloc = allocate_jamming(config)

    def run_trial(trial: int) -> list[RateSample]:
        rng0 = RngStream(master_seed, (trial, 0))
        ch0 = sample_channels(config, rng0, mode)
        pre = build_precoders(config, ch0, alloc, rng0)
        if mode.varies_per_use:
            seen = [channel_use(config, ch0, rng0, k, mode, pre.slots) for k in range(len(grid))]
        else:
            seen = [channel_use(config, ch0, rng0, 0, mode, pre.slots)] * len(grid)
        out = []
        for p_db, ch in zip(grid, seen):
            sig = SignalParams.from_db(p_db, sig_template.alpha, sig_template.sigma2)
            out.append(RateSample(p_db, trial, legit_rate(ch, pre, sig), eve_leakage(ch, pre, sig)))
        return out

    workers = min(_resolve_threads(threads), trials)
    if workers == 1:
        per_trial = [run_trial(t) for t in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(run_trial, range(trials)))

    samples = []
    for k in range(len(grid)):
        for t in range(trials):
            samples.append(per_trial[t][k])
    return samples


def _ols(x: np.ndarray, y: np.ndarray, window: tuple[float, float]) -> DofEstimate:
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DofEstimate(slope, intercept, r_squared, window)


def estimate_dof(
    samples: Sequence[RateSample], window_db: tuple[float, float] = (60.0, 100.0)
) -> tuple[DofEstimate, DofEstimate]:
    """Slopes of trial-averaged rates against 0.5 * log2(P) inside a window.

    Returns (legitimate, leakage) estimates; the legitimate slope is the
    measured degrees of freedom.  Raises InsufficientData with fewer than
    three distinct grid points inside the window.
    """
    lo, hi = window_db
    by_power: dict[float, list[RateSample]] = {}
    for s in samples:
        if lo <= s.p_db <= hi:
            by_power.setdefault(s.p_db, []).append(s)
    if len(by_power) < 3:
        raise InsufficientData(
            f"need at least 3 grid points in [{lo}, {hi}] dB, found {len(by_power)}"
        )
    powers = np.array(sorted(by_power), dtype=float)
    x = powers * HALF_LOG2_PER_DB
    legit_means = np.array([np.mean([s.legit_rate for s in by_power[p]]) for p in powers])
    leak_means = np.array([np.mean([s.eve_leakage for s in by_power[p]]) for p in powers])
    return _ols(x, legit_means, window_db), _ols(x, leak_means, window_db)
