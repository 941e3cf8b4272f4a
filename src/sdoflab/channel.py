"""Random channel realizations, the eavesdropper model and the Gaussian signal model.

A trial draws its channels once, at address (trial, 0); ``channel_use``
gives the channel a precoder set sees in use k, redrawing a time-varying
eavesdropper for slot s at (trial, 2k + s).  All draws are pure functions
of (master seed, trial index, address), so trials can run in any order or
in parallel with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .sdof import AntennaConfig

__all__ = [
    "EveMode",
    "RngStream",
    "SignalParams",
    "ChannelRealization",
    "sample_channels",
    "channel_use",
]

# Seed-sequence domains; kept distinct so legitimate, eavesdropper and
# precoder randomness never alias.
_DOMAIN_LEGIT = 0
_DOMAIN_EVE = 1
_DOMAIN_JAMMING = 2


class EveMode(Enum):
    STATIC = "static_eve"
    TIME_VARYING = "time_varying_eve"

    @property
    def varies_per_use(self) -> bool:
        """Whether the eavesdropper matrices are redrawn every channel use."""
        return self is EveMode.TIME_VARYING


@dataclass(frozen=True)
class RngStream:
    """Addressable randomness: a master seed plus (trial, channel-use) id."""

    master_seed: int
    stream_id: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit nonnegative integer")
        trial, use = self.stream_id
        if trial < 0 or use < 0:
            raise ValueError("stream_id components must be nonnegative")

    def generator(self, domain: int, per_use: bool = True) -> np.random.Generator:
        trial, use = self.stream_id
        key = (domain, trial, use) if per_use else (domain, trial)
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=key)
        return np.random.default_rng(seq)


@dataclass(frozen=True)
class SignalParams:
    """Total transmit power (linear), jamming power fraction and noise variance."""

    p: float
    alpha: float = 0.5
    sigma2: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p < 0:
            raise ValueError("p must be finite and nonnegative")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0:
            raise ValueError("sigma2 must be finite and positive")

    @classmethod
    def from_db(cls, p_db: float, alpha: float = 0.5, sigma2: float = 1.0) -> "SignalParams":
        try:
            p = 10.0 ** (p_db / 10.0)
        except OverflowError:
            raise ValueError(f"power {p_db} dB is past the float range") from None
        return cls(p=p, alpha=alpha, sigma2=sigma2)


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the four channel matrices.

    h1 (n x m1) and h2 (n x m2) connect the transmitters to the legitimate
    receiver; g1 (n_e x m1) and g2 (n_e x m2) connect them to the
    eavesdropper.  n_e may be zero, giving empty g matrices.  On the slot
    space of a two-slot set (``channel_use``) each is block diagonal by slot.
    For ``simulate.eve_leakage`` over a power grid, g1 and g2 may also be
    stacked along a leading grid axis, one channel use per grid point.
    """

    h1: np.ndarray
    h2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


def _complex_gaussian(gen, rows, cols):
    """A rows x cols matrix of i.i.d. CN(0, 1) entries."""
    z = gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))
    return np.sqrt(0.5) * z


def sample_channels(config: AntennaConfig, rng: RngStream, mode: EveMode) -> ChannelRealization:
    """Draw a channel realization for one (trial, channel use) address.

    Entries are i.i.d. circularly-symmetric complex Gaussian CN(0, 1), which
    makes all subspace positions generic almost surely.  The legitimate
    matrices depend only on the trial index; the eavesdropper matrices also
    depend on the channel-use index in time-varying mode.
    """
    legit = rng.generator(_DOMAIN_LEGIT, per_use=False)
    h1 = _complex_gaussian(legit, config.n, config.m1)
    h2 = _complex_gaussian(legit, config.n, config.m2)
    return ChannelRealization(h1, h2, *_eavesdropper(config, rng, mode))


def _eavesdropper(config, rng, mode):
    """The eavesdropper matrices (g1, g2) drawn at one address."""
    eve = rng.generator(_DOMAIN_EVE, per_use=mode.varies_per_use)
    g1 = _complex_gaussian(eve, config.n_e, config.m1)
    g2 = _complex_gaussian(eve, config.n_e, config.m2)
    return g1, g2


def channel_use(
    config: AntennaConfig,
    trial_ch: ChannelRealization,
    trial_rng: RngStream,
    use: int,
    mode: EveMode,
    slots: int,
) -> ChannelRealization:
    """The realization a ``slots``-slot precoder set sees in channel use ``use``.

    ``trial_ch`` is ``sample_channels(config, trial_rng, mode)`` with
    ``trial_rng`` at address (trial, 0).  The legitimate matrices are the
    trial's, held over both slots, and so is a static eavesdropper.  A
    time-varying one draws fresh CN(0, 1) eavesdropper matrices alone for
    slot s at address (trial, 2 * use + s), where (trial, 0) is the trial draw.
    """
    trial, first_use = trial_rng.stream_id
    if first_use != 0:
        raise ValueError("trial_rng must address channel use 0 of its trial")
    eve = [
        _eavesdropper(config, RngStream(trial_rng.master_seed, (trial, address)), mode)
        if mode.varies_per_use and address != 0
        else (trial_ch.g1, trial_ch.g2)
        for address in range(2 * use, 2 * use + slots)
    ]
    if slots == 1:
        return ChannelRealization(trial_ch.h1, trial_ch.h2, *eve[0])
    (a1, a2), (b1, b2) = eve
    return ChannelRealization(
        slot_extend(trial_ch.h1), slot_extend(trial_ch.h2), slot_extend(a1, b1), slot_extend(a2, b2)
    )


def jamming_generator(rng: RngStream) -> np.random.Generator:
    """Per-trial generator for random jamming directions."""
    return rng.generator(_DOMAIN_JAMMING, per_use=False)


def slot_extend(first: np.ndarray, second: np.ndarray | None = None) -> np.ndarray:
    """Two-slot block-diagonal extension diag(first, second) of a per-slot matrix.

    ``second`` defaults to ``first``: the matrix is held fixed across both
    slots.  Pass the second slot's draw for a channel that changes between
    them.
    """
    if second is None:
        second = first
    rows, cols = first.shape
    out = np.zeros(
        (rows + second.shape[0], cols + second.shape[1]),
        dtype=np.result_type(first, second),
    )
    out[:rows, :cols] = first
    out[rows:, cols:] = second
    return out

