"""Monte Carlo rate evaluation and high-SNR slope estimation.

Per trial, channels are drawn once and precoders built once; each chunk
of trials draws its channels from one batch of seeds and builds its
precoders in one stacked build.  Both per-stream powers are
linear in p, so every effective matrix is a scale of its unit-power
value, and one SVD per matrix gives its log-determinant at every grid
point: one for the legitimate rate and one for each side of the leakage
ratio, stacked over the grid when the eavesdropper varies per channel
use.  Rates are in bits per channel use (base-2 logs, averaged
over slots for two-slot schemes).  Trials are independent work items
keyed by (master seed, trial index), so the sweep can run them on any
number of threads with bit-identical results.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels as _kernels
from .channel import (
    ChannelRealization,
    EveMode,
    RngStream,
    SignalParams,
    channel_uses,
    sample_channels,
)
from .errors import InsufficientData, NumericalFailure, SdofLabError, located
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

# Most trials one stacked precoder build serves in ``sweep``.  A stack's
# intermediates are all alive at once, so peak memory grows with it; going
# from 16 to 64 cut a static sweep's time by only about 15% more.
CHUNK_TRIALS_MAX = 16


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


def _logdet(e: np.ndarray, powers: np.ndarray) -> np.ndarray:
    try:
        values = _kernels.logdet_eye_plus_gram(e, powers)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalFailure(f"log-determinant evaluation failed: {exc}") from exc
    # An overflowed power or scaled singular value gives inf or NaN.
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise NumericalFailure(f"log-determinant evaluation failed: result is {bad[0]}")
    return values


def _unit_blocks(channels, precoders) -> np.ndarray:
    """Concatenate the unit-power channel @ precoder blocks column-wise.

    A channel may carry a leading grid axis; the blocks then stack over it.
    """
    return np.concatenate([ch @ v for ch, v in zip(channels, precoders)], axis=-1)


def per_stream_powers(
    slots: int, legit_cols: int, jam_cols: int, sig: SignalParams
) -> tuple[float, float]:
    """Per-stream legitimate and jamming powers of a scheme at one power level.

    The legitimate budget (1 - alpha) p is split evenly over the
    ``legit_cols`` legitimate streams and the jamming budget alpha p over
    the ``jam_cols`` jamming streams, both counted on the slot space of a
    ``slots``-slot scheme and normalized per channel use (slot).  Zero-stream
    budgets give zero power.  An overflowed power is ``inf``.  Only
    ``sig.p`` and ``sig.alpha`` are read: given as arrays, one entry per
    grid point, they give each power as an array.
    """
    p_legit = (1.0 - sig.alpha) * sig.p * slots / legit_cols if legit_cols else 0.0
    p_jam = sig.alpha * sig.p * slots / jam_cols if jam_cols else 0.0
    return p_legit, p_jam


class _Grid(NamedTuple):
    """A power grid's ``SignalParams`` fields as arrays, one entry per grid point."""

    p: np.ndarray
    alpha: np.ndarray
    sigma2: np.ndarray


def _as_grid(sigs: "Sequence[SignalParams] | _Grid") -> _Grid:
    """The grid as arrays: ``sweep`` converts its list once, the rate functions take either."""
    if isinstance(sigs, _Grid):
        return sigs
    return _Grid(*(np.array([getattr(s, f) for s in sigs], dtype=float) for f in _Grid._fields))


def _grid_powers(pre: PrecoderSet, sigs) -> np.ndarray:
    """Per-stream (legitimate, jamming) powers of ``pre`` over the noise variance, (2, grid)."""
    grid = _as_grid(sigs)
    counts = (
        pre.slots,
        pre.v1_l.shape[1] + pre.v2_l.shape[1],
        pre.v1_j.shape[1] + pre.v2_j.shape[1],
    )
    with np.errstate(over="ignore"):  # an overflowed power is inf, as in floats
        legit, jam = per_stream_powers(*counts, grid)
    powers = np.empty((2, len(grid.p)))
    powers[0], powers[1] = legit, jam  # a zero-stream budget is a scalar 0.0
    return powers / grid.sigma2


def legit_rate(
    ch: ChannelRealization, pre: PrecoderSet, sigs: Sequence[SignalParams]
) -> np.ndarray:
    """Achievable legitimate sum rate after zero-forcing, in bits/channel use.

    Returns one rate per grid point ``sigs[k]``: 0.5 * log2 det(I + U S_k
    U^H / sigma2) with S_k the received legitimate signal covariance,
    averaged over slots, from one SVD of the unit-power effective matrix.
    ``ch`` is on the precoders' slot space (``channel_use``).  Zero power,
    zero legitimate streams or a zero projector all give exactly 0 bits.
    """
    p_legit, _ = _grid_powers(pre, sigs)
    effective = _unit_blocks((pre.u @ ch.h1, pre.u @ ch.h2), (pre.v1_l, pre.v2_l))
    return 0.5 * _logdet(effective, p_legit) / pre.slots


def eve_leakage(
    ch: ChannelRealization, pre: PrecoderSet, sigs: Sequence[SignalParams]
) -> np.ndarray:
    """A lower bound on the eavesdropper's mutual information, in bits/channel use.

    Returns one value per grid point ``sigs[k]``: max(0, 0.5 * (log2 det(I
    + S_k) - log2 det(I + J_k))), averaged over slots, with S_k and J_k the
    eavesdropper's received legitimate and jamming covariances over the
    noise variance.  The mutual information is log2 det(I + S + J) - log2
    det(I + J), which is at least this value; making the two agree is open
    item 1 of ROADMAP.md.  ``ch`` is on the precoders' slot space
    (``channel_use``); its ``g1`` and ``g2`` are either one pair of
    matrices held over the grid (two SVDs in all) or stacks with a leading
    grid axis, one ``channel_use`` per grid point (one stacked SVD per
    block).
    """
    p_legit, p_jam = _grid_powers(pre, sigs)
    if ch.g1.shape[-2] == 0:
        return np.zeros_like(p_legit)
    signal = _unit_blocks((ch.g1, ch.g2), (pre.v1_l, pre.v2_l))
    jamming = _unit_blocks((ch.g1, ch.g2), (pre.v1_j, pre.v2_j))
    leak = 0.5 * (_logdet(signal, p_legit) - _logdet(jamming, p_jam)) / pre.slots
    return np.maximum(leak, 0.0)


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


def _chunks(trials: int, workers: int) -> list[range]:
    """Contiguous trial ranges, at least one per worker, none longer than CHUNK_TRIALS_MAX."""
    count = max(workers, -(-trials // CHUNK_TRIALS_MAX))
    bounds = [trials * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


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
    point k on channel use k under eavesdropper model ``mode``, from one
    call of each rate function over the whole grid.  The trials are split
    into contiguous chunks, at least one per worker thread and none longer
    than ``CHUNK_TRIALS_MAX``.  Each chunk draws its trials' channels in
    one ``sample_channels`` call and a time-varying eavesdropper's every
    use in one ``channel_uses`` call, each seeding all its addresses in one
    batch, and builds all its precoder sets in one stacked
    ``build_precoders`` call.  A trial's draws and set do not depend on its
    chunk, so the output, ordered by (p_db, trial), depends only on the
    arguments, never on thread count (``threads=None`` reads
    SDOFLAB_THREADS, defaulting to sequential; either way no more worker
    threads start than ``os.cpu_count()`` or ``trials``).  An InfeasibleAllocation
    from any trial aborts the sweep: feasibility is generic, so a failure
    indicates an allocation bug rather than bad luck.  A failing build or
    rate evaluation raises its own error type, its message naming the
    config, the trial and the master seed that reproduce it.
    """
    grid = [float(p) for p in p_grid_db]
    if len(grid) == 0:
        raise ValueError("p_grid_db must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("p_grid_db must be strictly increasing")
    if trials < 1:
        raise ValueError("trials must be at least 1")

    alloc = allocate_jamming(config)
    sigs = _as_grid(
        [SignalParams.from_db(p, sig_template.alpha, sig_template.sigma2) for p in grid]
    )

    def where(trial: int) -> str:
        return f"{config} trial {trial} master seed {master_seed}"

    def run_chunk(chunk: range) -> list[list[RateSample]]:
        rngs = [RngStream(master_seed, (trial, 0)) for trial in chunk]
        draws = sample_channels(config, rngs, mode)
        try:
            sets = build_precoders(config, draws, alloc, rngs)
        except SdofLabError as exc:
            # A failure that is not one member's fails every trial alike.
            raise located(exc, where(chunk[exc.member or 0])) from exc
        seen = channel_uses(config, draws, rngs, range(len(grid)), mode, alloc.slots)
        out = []
        for i, (trial, pre) in enumerate(zip(chunk, sets)):
            ch = ChannelRealization(seen.h1[i], seen.h2[i], seen.g1[i], seen.g2[i])
            try:
                legit = legit_rate(ch, pre, sigs).tolist()
                leak = eve_leakage(ch, pre, sigs).tolist()
            except SdofLabError as exc:
                raise located(exc, where(trial)) from exc
            out.append([RateSample(p, trial, a, b) for p, a, b in zip(grid, legit, leak)])
        return out

    workers = min(_resolve_threads(threads), trials, os.cpu_count() or 1)
    chunks = _chunks(trials, workers)
    if workers == 1:
        per_chunk = [run_chunk(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(run_chunk, chunks))
    per_trial = [samples for chunk in per_chunk for samples in chunk]

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
