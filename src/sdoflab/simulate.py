"""Monte Carlo rate evaluation and high-SNR slope estimation.

Everything runs on a stack of trials, from the draw to the rates.  Each
chunk of trials draws its channels from one batch of seeds, builds its
precoder set in one stacked build and evaluates each rate over contiguous
blocks of grid points, one call per block.  Both per-stream powers are
linear in p, so every effective matrix is a scale of its unit-power value,
and one SVD per matrix gives its log-determinant at every grid point of a
block: one stacked SVD for the legitimate rate and one for each side of the
leakage ratio, over the trials and, when the eavesdropper varies per
channel use, the block's uses.  Signals are real (``channel.real_form``)
and noise is N(0, 1/2) per real dimension, so a power level is the SNR.
Rates are (trials, grid) arrays in bits per real dimension, half the
mutual information per complex channel use, so their slope against
0.5 log2 P is the degrees of freedom.
Trials are independent work items keyed by (master seed, trial index), and
every draw and SVD is per matrix, so the sweep can run them in any chunks
and blocks on any number of worker processes with bit-identical results.
What a stack holds at once stays within ``STACK_BYTES_MAX``: its trial
count is set by what a build holds, and each block's length by what a
grid point (for a time-varying eavesdropper, a channel use) holds next to
the stack's draws and precoders.  Short grids, and the time-varying grids
of small stacks, are one block.  Memory alone sizes the stacks: a sweep
that fits one stack runs in one, in this process, whatever worker count
it is given, since each further stack pays its own build and seed
batches.  Workers are forked (``_in_workers``), the calling process being
the first; ``verify`` walks its families on the same helper.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass
from signal import SIGKILL
from typing import Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from . import kernels as _kernels
from .channel import (
    ChannelRealization,
    EveMode,
    RngStream,
    SignalParams,
    channel_uses,
    real_form,
    sample_channels,
)
from .errors import InsufficientData, NumericalFailure, SdofLabError, located
from .precoding import PrecoderSet, build_precoders, check_pairing
from .sdof import AntennaConfig, JammingAllocation, allocate_jamming, check_count

__all__ = [
    "SweepResult",
    "DofEstimate",
    "legit_rate",
    "eve_leakage",
    "sweep",
    "estimate_dof",
    "HALF_LOG2_PER_DB",
]

# d(0.5 * log2 P) / d(P_dB): converts dB grids to the regression abscissa.
HALF_LOG2_PER_DB = float(np.log2(10.0) / 20.0)

# Bytes one stack of trials in ``sweep`` may hold at once: its draws and
# precoder set with the temporaries of its build or of one block of rates.
# Every stack pays a fixed cost of about a dozen trials' work (its build and
# seed batches) and every block a smaller one (a seed batch and a few
# stacked SVDs), so the fewer of each this allows, the faster a sweep.  At
# this bound a stack of (4, 4, 6, 3) holds 57 trials whatever the grid, and
# a time-varying block 4 channel uses of a 54-trial stack.
STACK_BYTES_MAX = 800_000

# The model of what a stack holds (``_stack_bytes``), in bytes.  Arrays are
# counted by their entries, 16 B for a complex one and 8 B for a real one;
# the rest was fitted with tracemalloc (peak less what was held before) on
# the four benchmark configurations and 33 others of up to 5 antennas, in
# stacks of 1 to 64 trials and blocks of 1 to 2,500 points:
# - every stack holds about 10 kB whatever its size (the intercept of the
#   fits: work buffers and Python objects), rounded up to 16 kB;
# - a trial holds its draws and precoder set plus up to 475 B of objects;
# - a build adds 42 B per entry of the transmit squares m1^2 + m2^2, 110
#   per legitimate channel entry n (m1 + m2) and 80 per eavesdropper entry
#   n_e (m1 + m2) (least squares), and 1.4 kB, the constant that covers the
#   largest residual;
# - a time-varying use is seeded in 260 B (its key row, entropy words,
#   hash pool and seed words) and drawn in up to 64 B per eavesdropper
#   entry (its normals and complex temporaries).  One-call peaks of
#   ``channel_uses`` over 256 to 32,000 uses read at most 155 B above the
#   draw term (209-283 B per use in all at (1, 1, 1, 1)); the seeding term
#   is rounded up to where a 16-trial stack on a dense grid still works in
#   under twice the memory of one trial (1.76x; 2.19x at 160 B);
# - a rate's log-determinant holds 26 B per singular value and grid point
#   (three float temporaries and two masks) and 24 B of results;
# - a block's ``SignalParams`` is a view of the sweep's powers, converted
#   from dB once and held, like the grid, through the sweep; its per-stream
#   SNRs take 33 B per grid point while ``stream_snrs`` makes them
#   (tracemalloc on 1,000 to 10,000 points) and 16 B through the rates.
#   The model keeps 64 B: the sweeps below were measured at the block
#   lengths it gives.
# One-thread sweeps of each of those configurations, in both modes, with 1
# to 160 trials on 17 to 1,000 points (seven cases each) peaked at 768 kB
# or less.
_STACK_FIXED_BYTES = 16_000
_TRIAL_OBJECT_BYTES = 512
_BUILD_SQUARE_BYTES = 42
_BUILD_LEGIT_BYTES = 110
_BUILD_EVE_BYTES = 80
_BUILD_FIXED_BYTES = 1_400
_USE_SEED_BYTES = 260
_USE_DRAW_BYTES = 64
_RATE_VALUE_BYTES = 26
_RATE_POINT_BYTES = 24
_SIGNAL_BYTES = 64


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's (grid,) power levels in dB and (trials, grid) rates in bits per real dimension."""

    grid: np.ndarray
    legit: np.ndarray
    leakage: np.ndarray


@dataclass(frozen=True)
class DofEstimate:
    """Least-squares slope of mean rate against 0.5 * log2(P)."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]


def _failure(message: str, bad_trials: np.ndarray) -> NumericalFailure:
    """A failed log-determinant whose ``member`` is the first trial flagged in ``bad_trials``."""
    exc = NumericalFailure(f"log-determinant evaluation failed: {message}")
    if bad_trials.any():
        exc.member = int(np.argmax(bad_trials))
    return exc


def _logdet(e: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Log-determinants of a (trials, 1 | grid, rows, cols) stack over the grid: (trials, grid).

    A non-finite matrix or value fails the evaluation, naming the first
    trial that has one.
    """
    try:
        values = _kernels.logdet_eye_plus_gram(e, powers)
    except (np.linalg.LinAlgError, ValueError) as exc:
        # A NaN entry fails the SVD of the whole stack.
        raise _failure(str(exc), ~np.isfinite(e).all(axis=(1, 2, 3))) from exc
    values = np.broadcast_to(values, e.shape[:1] + powers.shape)
    # An overflowed SNR gives inf or NaN.
    bad = ~np.isfinite(values)
    if bad.any():
        raise _failure(f"result is {values[bad][0]}", bad.any(axis=-1))
    return values


def _unit_blocks(channels, precoders) -> np.ndarray:
    """Concatenate the unit-power channel @ precoder blocks column-wise.

    Each channel is a (trials, 1 | grid, rows, cols) stack and each
    precoder a (trials, cols, streams) stack.
    """
    return np.concatenate([ch @ v[:, None] for ch, v in zip(channels, precoders)], axis=-1)


def _snrs(pre: PrecoderSet, sig: SignalParams) -> np.ndarray:
    """``sig.stream_snrs`` of the real streams of ``pre``: the scales of the unit-power log-determinants."""
    legit_cols = pre.v1_l.shape[-1] + pre.v2_l.shape[-1]
    return sig.stream_snrs(legit_cols, pre.v1_j.shape[-1] + pre.v2_j.shape[-1])


def legit_rate(ch: ChannelRealization, pre: PrecoderSet, sig: SignalParams) -> np.ndarray:
    """Achievable legitimate sum rate after zero-forcing, in bits per real dimension.

    Returns a (trials, grid) array, one rate per trial of the stack and
    power level p_k of ``sig`` (a scalar ``sig.p`` is a grid of one):
    0.25 * log2 det(I + 2 U H Q_k H^T U) with H the real form of
    [h1 | h2] and Q_k the legitimate transmit covariance at p_k, which is
    half the mutual information per complex channel use, from one stacked
    SVD of the unit-power effective matrices.  ``ch`` holds the complex
    channels (``sample_channels`` or ``channel_uses``); InvalidMatrix means
    ``ch.h1`` or ``ch.h2`` is not a finite stack, and its ``member`` names
    the trial, and DimensionMismatch that ``ch`` is not ``pre``'s
    (``check_pairing``).  Zero power, zero legitimate streams or a zero
    projector all give exactly 0 bits.
    """
    check_pairing(ch, pre, eavesdropper=False)
    p_legit, _ = _snrs(pre, sig)
    h1, h2 = real_form(ch.h1, "h1"), real_form(ch.h2, "h2")
    received = ((pre.u @ h1)[:, None], (pre.u @ h2)[:, None])
    effective = _unit_blocks(received, (pre.v1_l, pre.v2_l))
    return 0.25 * _logdet(effective, p_legit)


def eve_leakage(ch: ChannelRealization, pre: PrecoderSet, sig: SignalParams) -> np.ndarray:
    """A lower bound on the eavesdropper's mutual information, in bits per real dimension.

    Returns a (trials, grid) array, one value per trial of the stack and
    power level p_k of ``sig`` (a scalar ``sig.p`` is a grid of one):
    max(0, 0.25 * (log2 det(I + S_k) - log2 det(I + J_k))), with S_k and
    J_k the eavesdropper's received legitimate and jamming covariances at
    p_k, on the real forms of g1 and g2, over the real noise variance
    1/2.  The mutual information (halved, as for ``legit_rate``) is
    0.25 * (log2 det(I + S + J) - log2 det(I + J)), which is at least this
    value; making the two agree is an open item of ROADMAP.md.  ``ch``
    holds the eavesdropper channels over the grid (``channel_uses``): a
    static eavesdropper's use axis of length 1 is held over the grid, a
    time-varying one has an entry per grid point.  InvalidMatrix means
    ``ch.g1`` or ``ch.g2`` is not a finite stack, and its ``member`` names
    the trial, and DimensionMismatch that ``ch`` is not ``pre``'s or that
    its uses are neither one nor the grid's (``check_pairing``).  One
    stacked SVD per side serves every trial and grid point.
    """
    check_pairing(ch, pre, eavesdropper=True, points=np.size(sig.p))
    p_legit, p_jam = _snrs(pre, sig)
    if ch.g1.shape[-2] == 0:
        return np.zeros((len(ch.g1), len(p_legit)))
    g1, g2 = real_form(ch.g1, "g1"), real_form(ch.g2, "g2")
    signal = _unit_blocks((g1, g2), (pre.v1_l, pre.v2_l))
    jamming = _unit_blocks((g1, g2), (pre.v1_j, pre.v2_j))
    leak = 0.25 * (_logdet(signal, p_legit) - _logdet(jamming, p_jam))
    return np.maximum(leak, 0.0)


class _StackBytes(NamedTuple):
    """What one trial holds in a sweep stack, in bytes: at its build's peak, and per block of rates.

    ``legit`` and ``leakage`` are each (held through a block, held per
    grid point of the block).
    """

    build: int
    legit: tuple[int, int]
    leakage: tuple[int, int]


def _stack_bytes(config: AntennaConfig, alloc: JammingAllocation, mode: EveMode) -> _StackBytes:
    """``_StackBytes`` of a trial of ``config`` under ``alloc``, from its array dimensions."""
    m1, m2, n, n_e = config.m1, config.m2, config.n, config.n_e
    m, legit, jam = m1 + m2, alloc.d_total, alloc.total_streams
    # The draws and the precoder set, from the build to the last block.
    precoders = 2 * m1 * (alloc.d1 + alloc.streams(1)) + 2 * m2 * (alloc.d2 + alloc.streams(2))
    held = 16 * (n + n_e) * m + 8 * (precoders + 4 * n * n) + _TRIAL_OBJECT_BYTES
    build = (
        held
        + _BUILD_SQUARE_BYTES * (m1 * m1 + m2 * m2)
        + _BUILD_LEGIT_BYTES * n * m
        + _BUILD_EVE_BYTES * n_e * m
        + _BUILD_FIXED_BYTES
    )
    # The real forms of h1 and h2, their images under u and the effective blocks.
    legit_base = held + 32 * n * (2 * m + legit)
    legit_point = _RATE_VALUE_BYTES * legit + _RATE_POINT_BYTES
    # An eavesdropper channel use: its complex draw, real forms and received blocks.
    eve_use = 16 * n_e * (3 * m + legit + 2 * jam)
    eve_point = _RATE_VALUE_BYTES * min(2 * n_e, max(legit, jam)) + _RATE_POINT_BYTES
    if mode.varies_per_use:
        # Before a use is evaluated it is seeded and drawn.
        seeding = _USE_SEED_BYTES + _USE_DRAW_BYTES * n_e * m if n_e else 0
        leakage = (held, max(seeding, eve_use + eve_point))
    else:
        leakage = (held + eve_use, eve_point)
    return _StackBytes(build, (legit_base, legit_point), leakage)


def trial_bytes(config: AntennaConfig, alloc: JammingAllocation) -> int:
    """What one trial of ``config`` holds at the peak of its draw and precoder build under ``alloc``, in bytes.

    This is the ``build`` term of the stack model (``_stack_bytes``), the
    same under either eavesdropper model.  A stack holds at least one
    trial, so no sweep of ``config`` holds less.
    """
    return _stack_bytes(config, alloc, EveMode.STATIC).build


def usable_cpus() -> int:
    """The number of CPUs this process may run on, and so the most worker processes worth forking.

    That is its affinity set where the platform has one, so a ``taskset``
    or cpuset limit counts, else ``os.cpu_count()``, and 1 when that is
    unknown.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ranges(items: int, count: int) -> list[range]:
    """``range(items)`` split into ``count`` contiguous ranges, their lengths within one of each other."""
    bounds = [items * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _can_fork() -> bool:
    """Whether ``_in_workers`` may fork its workers here.

    Forking needs ``os.fork``, and is unsafe while another thread runs:
    the child would inherit any lock that thread holds, and nothing would
    ever release it.
    """
    return hasattr(os, "fork") and threading.active_count() == 1


def _serve(fn: Callable, share, write: int) -> NoReturn:
    """A forked worker's whole life: send ``(True, fn(share))``, or ``(False, what it raised)``, to ``write``.

    A reply that does not pickle is not sent, and the parent reads an
    empty pipe.
    """
    try:
        try:
            reply = (True, fn(share))
        except BaseException as exc:
            reply = (False, exc)
        payload = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _in_workers(fn: Callable, shares: Sequence) -> list:
    """``[fn(share) for share in shares]``, every share but the first in a forked worker process.

    Share 0 runs in this process while the others run in children forked
    first, each sending back its result, or the exception it raised,
    through a pipe; a child always ends in ``os._exit``.  The results are
    read in share order, and the first share in that order that raised
    has its exception raised here (a child's without its traceback).
    Every child is reaped before this returns or raises; on any exception,
    KeyboardInterrupt included, the children are killed first.  Where
    ``_can_fork()`` is False, and for one share, every share runs here in
    turn.
    """
    if len(shares) < 2 or not _can_fork():
        return [fn(share) for share in shares]
    pids, pipes = [], []
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, share, write)
            finally:
                os.close(write)  # in this process: the child never returns
            pids.append(pid)
        results = [fn(shares[0])]
        for pipe in pipes:
            try:
                done, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError("a worker process ended without sending its result") from None
            if not done:
                raise value
            results.append(value)
        return results
    except BaseException:
        for pid in pids:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _chunks(trials: int, threads: int, trial_bytes: int) -> tuple[int, list[range]]:
    """The worker count of a sweep and its contiguous trial ranges.

    The stacks needed are as few as keep each build within
    STACK_BYTES_MAX, and the workers no more than ``threads``,
    ``usable_cpus()`` or those stacks.  Their count is rounded up to a
    multiple of the workers, while the trials last, so that each gets as
    many; a stack is never split just to feed a worker.
    """
    per = max(1, (STACK_BYTES_MAX - _STACK_FIXED_BYTES) // trial_bytes)
    needed = -(-trials // per)
    workers = min(threads, usable_cpus(), needed)
    return workers, _ranges(trials, min(trials, workers * -(-needed // workers)))


def _blocks(points: int, trials: int, held: tuple[int, int]) -> list[range]:
    """Contiguous ranges of grid points, as few as keep a stack of ``trials`` within STACK_BYTES_MAX.

    ``held`` is what each trial holds through a block and per point of it
    (``_StackBytes``); each point also costs ``_SIGNAL_BYTES`` for its
    per-stream SNRs (``SignalParams.stream_snrs``).  Each block holds at
    least 1.
    """
    base, per_point = held
    room = STACK_BYTES_MAX - _STACK_FIXED_BYTES - trials * base
    length = max(1, room // (trials * per_point + _SIGNAL_BYTES))
    return _ranges(points, -(-points // length))


def sweep(
    config: AntennaConfig,
    sig_template: SignalParams,
    p_grid_db: Sequence[float],
    trials: int,
    master_seed: int,
    mode: EveMode,
    threads: int = 1,
) -> SweepResult:
    """Monte Carlo rates over a power grid, one row per trial and column per point.

    Only ``alpha`` of ``sig_template`` is read: the power levels are those
    of ``p_grid_db``, which must all be valid.  Per trial t: one channel
    draw from ``RngStream(master_seed, t)`` and one precoder build, then
    rates at each grid point k on channel use k of ``channel_uses`` under
    eavesdropper model ``mode``.  The trials are split into as few
    contiguous chunks as keep each build within ``STACK_BYTES_MAX``, run
    on up to ``threads`` worker processes: no more than ``usable_cpus()``
    or the chunks, and the chunk count rounded up to a multiple of the
    workers so that each gets as many.  Each worker takes a contiguous run
    of chunks and hands back its rows of the result; the first is this
    process and the others are forked (``_in_workers``), unless another
    thread is running, when every chunk runs here.  Each chunk draws its
    trials' channels in one ``sample_channels`` call, seeding all its
    addresses in one batch, and builds its precoder set in one stacked
    ``build_precoders`` call.  It then evaluates ``legit_rate`` and then
    ``eve_leakage`` over as few contiguous blocks of grid points as keep
    the stack within ``STACK_BYTES_MAX``, one call over all its trials per
    block, with one ``SignalParams`` of the block's slice of the grid's
    powers, converted from dB once before any draw; a
    time-varying eavesdropper's uses of a block are drawn in one
    ``channel_uses`` call.  Each block writes its columns of the chunk's
    rows of the result.  A trial's draws, set and rates do not depend on
    its chunk, block or worker, so the output, its rows in trial order,
    depends only on the arguments, never on the worker count.  ``trials``
    and ``threads`` must be integers of at least 1, and ``master_seed`` one
    of at least 0, all checked before any draw.  An InfeasibleAllocation
    from any trial aborts the sweep: feasibility is generic, so a failure
    indicates an allocation bug rather than bad luck.  A failing build or
    rate evaluation raises its own error type, its message naming the
    config, the trial and the master seed that reproduce it; with several
    failing chunks, the first chunk's error is raised.
    """
    grid = np.array([float(p) for p in p_grid_db])  # returned with the rates: no working memory
    if len(grid) == 0:
        raise ValueError("p_grid_db must not be empty")
    if (grid[1:] <= grid[:-1]).any():
        raise ValueError("p_grid_db must be strictly increasing")
    check_count("trials", trials)
    check_count("threads", threads)
    check_count("master_seed", master_seed, 0)
    alpha = sig_template.alpha
    powers = SignalParams.from_db(grid, alpha).p  # every power level is valid before any draw

    alloc = allocate_jamming(config)
    held = _stack_bytes(config, alloc, mode)

    def signal(points: range) -> SignalParams:
        return SignalParams(powers[points.start : points.stop], alpha)

    legit = np.empty((trials, len(grid)))
    leakage = np.empty((trials, len(grid)))

    def where(trial: int) -> str:
        return f"{config} trial {trial} master seed {master_seed}"

    def run_chunk(chunk: range) -> None:
        rngs = [RngStream(master_seed, trial) for trial in chunk]
        rows = slice(chunk.start, chunk.stop)
        draws = sample_channels(config, rngs, mode)
        try:
            pre = build_precoders(draws, alloc, rngs)
            for points in _blocks(len(grid), len(chunk), held.legit):
                legit[rows, points.start : points.stop] = legit_rate(draws, pre, signal(points))
            for uses in _blocks(len(grid), len(chunk), held.leakage):
                seen = channel_uses(config, draws, rngs, uses, mode)
                leakage[rows, uses.start : uses.stop] = eve_leakage(seen, pre, signal(uses))
        except SdofLabError as exc:
            # A failure that is not one member's fails every trial alike.
            raise located(exc, where(chunk[exc.member or 0])) from exc

    def run_share(share: list[range]) -> tuple[slice, np.ndarray, np.ndarray]:
        for chunk in share:
            run_chunk(chunk)
        rows = slice(share[0].start, share[-1].stop)
        return rows, legit[rows], leakage[rows]

    workers, chunks = _chunks(trials, threads, held.build)
    shares = [chunks[r.start : r.stop] for r in _ranges(len(chunks), workers)]
    for rows, share_legit, share_leakage in _in_workers(run_share, shares):
        legit[rows], leakage[rows] = share_legit, share_leakage
    return SweepResult(grid, legit, leakage)


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
    result: SweepResult, window_db: tuple[float, float] = (60.0, 100.0)
) -> tuple[DofEstimate, DofEstimate]:
    """Slopes of trial-averaged rates against 0.5 * log2(P) inside a window.

    Regresses the column means of ``result.legit`` and ``result.leakage``
    inside the window and returns (legitimate, leakage) estimates; the
    legitimate slope is the measured degrees of freedom.  Raises
    InsufficientData with fewer than three grid points inside the window.
    """
    lo, hi = window_db
    inside = (lo <= result.grid) & (result.grid <= hi)
    found = int(inside.sum())
    if found < 3:
        raise InsufficientData(f"need at least 3 grid points in [{lo}, {hi}] dB, found {found}")
    x = result.grid[inside] * HALF_LOG2_PER_DB

    def means(rates: np.ndarray) -> np.ndarray:
        # Each point's trials summed as one contiguous run in trial order:
        # a mean over axis 0 would add row by row and round differently.
        return np.ascontiguousarray(rates[:, inside].T).mean(axis=1)

    return _ols(x, means(result.legit), window_db), _ols(x, means(result.leakage), window_db)
