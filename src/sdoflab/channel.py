"""Random channel realizations, the eavesdropper model and the Gaussian signal model.

A trial draws its channels once, at address (trial, 0); ``channel_use``
gives the channel a precoder set sees in use k, redrawing a time-varying
eavesdropper for slot s at (trial, 2k + s).  All draws are pure functions
of (master seed, trial index, address), so trials can run in any order or
in parallel with identical results.

Every address seeds its own PCG64 generator from NumPy's ``SeedSequence``
of the master seed and a spawn key (domain, trial[, use]).  A batch of at
least ``SEED_HASH_MIN_KEYS`` addresses (a stack of trials in
``sample_channels``, the uses of ``channel_uses``, the jamming generators
of a stacked build) is hashed in one vectorised pass that reproduces
``SeedSequence`` bit for bit, and each generator is seeded straight from
its state words; a smaller batch builds one ``SeedSequence`` per address.
Either way every draw is the same.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .sdof import AntennaConfig

__all__ = [
    "EveMode",
    "RngStream",
    "SignalParams",
    "ChannelRealization",
    "sample_channels",
    "channel_uses",
    "channel_use",
]

# Seed-sequence domains; kept distinct so legitimate, eavesdropper and
# precoder randomness never alias.
_DOMAIN_LEGIT = 0
_DOMAIN_EVE = 1
_DOMAIN_JAMMING = 2

# Fewest addresses one vectorised seed hash serves.  The hash costs about
# 100 us per batch and then about 2 us per address, generator included; a
# SeedSequence and the PCG64 seeded from it cost about 15 us.  At 8
# addresses the two take the same time (timed on a 2 GHz Xeon vCPU).
# Below this count each address gets its own SeedSequence, so single draws
# (a ``design`` run, a one-seed ``verify`` config) keep their cost.
SEED_HASH_MIN_KEYS = 8


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
        if not (0 <= trial < 2**64 and 0 <= use < 2**64):
            raise ValueError("stream_id components must be 64-bit nonnegative integers")


def _spawn_key(domain: int, trial: int, use: int | None = None) -> tuple[int, ...]:
    """The ``SeedSequence`` spawn key of address (trial[, use]) in ``domain``."""
    return (domain, trial) if use is None else (domain, trial, use)


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, mixed from the assembled entropy, then hashed out into the
# state.  uint32 array arithmetic wraps modulo 2**32 as its C code does.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_LOW32 = np.uint64(0xFFFFFFFF)


def _hash_constants(start: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) constants of ``count`` successive hash steps, as columns."""
    seq = [start]
    for _ in range(count):
        seq.append(seq[-1] * mult & 0xFFFFFFFF)
    return np.array(seq[:-1], np.uint32)[:, None], np.array(seq[1:], np.uint32)[:, None]


@functools.lru_cache(maxsize=None)
def _mix_schedule(words: int):
    """Per-step hash constants of ``mix_entropy`` for ``words`` entropy words.

    The constants advance once per hash call whatever the data, so every
    key of a batch uses the same ones.  Step 0 fills the pool; steps 1-4
    mix pool word ``src`` into the other three (a placeholder row stands in
    for ``src`` itself); each later step mixes one more entropy word into
    all four.
    """
    n_extra = max(words - _POOL_SIZE, 0)
    calls = _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1) + _POOL_SIZE * n_extra
    xor, mul = _hash_constants(_INIT_A, _MULT_A, calls)
    steps = [(xor[:_POOL_SIZE], mul[:_POOL_SIZE])]
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        width = _POOL_SIZE - 1
        steps.append(
            (
                np.insert(xor[at : at + width], src, 0, axis=0),
                np.insert(mul[at : at + width], src, 0, axis=0),
            )
        )
        at += width
    for _ in range(n_extra):
        steps.append((xor[at : at + _POOL_SIZE], mul[at : at + _POOL_SIZE]))
        at += _POOL_SIZE
    return steps


# generate_state(4, uint64) hashes out eight uint32 words, cycling the pool.
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(values, xor, mul):
    v = (values ^ xor) * mul
    return v ^ (v >> _XSHIFT)


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def _entropy(master_seed, keys) -> tuple[np.ndarray, np.ndarray]:
    """``SeedSequence``'s assembled entropy of every key: (words, K) uint32 and each key's length.

    The master seed (below 2**64) is padded to the pool size, as NumPy does
    when a spawn key follows, so it takes rows 0-3 whether it has one word
    or two.  Each key component then adds one word, or two from 2**32 on.
    ``keys`` is a sequence of tuples of any lengths.
    """
    count = len(keys)
    lengths = np.fromiter(map(len, keys), dtype=np.intp, count=count)
    flat = np.fromiter(itertools.chain.from_iterable(keys), dtype=np.uint64, count=lengths.sum())
    wide = flat > _LOW32
    words = 1 + wide
    owner = np.repeat(np.arange(count), lengths)
    before = np.cumsum(words) - words  # words of all earlier components
    first = np.cumsum(lengths) - lengths  # each key's first component
    at = _POOL_SIZE + before - before[first][owner]
    sizes = _POOL_SIZE + np.bincount(owner, weights=words, minlength=count).astype(np.intp)
    rows = np.zeros((sizes.max(), count), np.uint32)
    rows[at, owner] = flat & _LOW32
    rows[at[wide] + 1, owner[wide]] = flat[wide] >> np.uint64(32)
    seeds = np.broadcast_to(np.asarray(master_seed, dtype=np.uint64), (count,))
    rows[0] = seeds & _LOW32
    rows[1] = seeds >> np.uint64(32)
    return rows, sizes


def _seed_words(master_seed, keys) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=key).generate_state(4, uint64)`` for every key.

    ``master_seed`` is one seed or one per key; ``keys`` are nonempty spawn
    keys, of any lengths.  All keys are hashed together: a key shorter than
    the longest stops mixing at its own last word.  Returns (K, 4) uint64.
    """
    entropy, sizes = _entropy(master_seed, keys)
    steps = _mix_schedule(len(entropy))
    pool = _hashmix(entropy[:_POOL_SIZE], *steps[0])
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hashmix(pool[src], *steps[1 + src]))
        mixed[src] = pool[src]
        pool = mixed
    shortest = sizes.min()
    for word in range(_POOL_SIZE, len(entropy)):
        mixed = _mix(pool, _hashmix(entropy[word], *steps[1 + word]))
        pool = mixed if word < shortest else np.where(word < sizes, mixed, pool)
    state = _hashmix(np.concatenate([pool, pool]), *_STATE_CONSTANTS).astype(np.uint64)
    # Little-endian pairs of uint32 words, as generate_state views them;
    # PCG64 reads each key's row as contiguous memory.
    return np.ascontiguousarray((state[0::2] | (state[1::2] << np.uint64(32))).T)


class _StateWords(ISeedSequence):
    """A seed sequence already hashed: hands PCG64 the four words it asks for."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError("hashed seed words serve generate_state(4, np.uint64) only")
        return self.words


def _generators(master_seeds, keys) -> Iterator[np.random.Generator]:
    """One PCG64 generator per (master seed, spawn key), each as ``SeedSequence`` seeds it.

    ``master_seeds`` holds one seed per key and ``keys`` one spawn key
    tuple per address.  A hashed batch makes its generators one at a time
    as the caller iterates, so hundreds are never held at once.
    """
    if len(keys) >= SEED_HASH_MIN_KEYS:
        return (np.random.default_rng(_StateWords(w)) for w in _seed_words(master_seeds, keys))
    return iter([
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
        for seed, key in zip(master_seeds, keys)
    ])


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
    stacked along a leading grid axis, one channel use per grid point; for
    several trials (``sample_channels`` and ``channel_uses`` on a sequence
    of streams, ``precoding.build_precoders``), every matrix is stacked
    along a leading trial axis.
    """

    h1: np.ndarray
    h2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


_SQRT_HALF = np.sqrt(0.5)


def _complex_gaussian_pairs(gens, count, rows, cols1, cols2):
    """From each of the next ``count`` generators, two matrices of i.i.d. CN(0, 1) entries.

    The matrices are rows x cols1 and rows x cols2, stacked along a leading
    axis, one member per generator.  Each generator fills its own row with
    one ``standard_normal`` call, in the order real 1, imaginary 1, real 2,
    imaginary 2: the same stream, bit for bit, as four successive per-block
    calls.
    """
    a, b = rows * cols1, rows * cols2
    z = np.empty((count, 2 * (a + b)))
    for row in z:
        next(gens).standard_normal(out=row)
    first = _SQRT_HALF * (z[:, :a] + 1j * z[:, a : 2 * a])
    second = _SQRT_HALF * (z[:, 2 * a : 2 * a + b] + 1j * z[:, 2 * a + b :])
    return first.reshape(count, rows, cols1), second.reshape(count, rows, cols2)


def sample_channels(
    config: AntennaConfig, rng: RngStream | Sequence[RngStream], mode: EveMode
) -> ChannelRealization:
    """Draw a channel realization for one (trial, channel use) address, or for a stack of them.

    Entries are i.i.d. circularly-symmetric complex Gaussian CN(0, 1), which
    makes all subspace positions generic almost surely.  The legitimate
    matrices depend only on the trial index; the eavesdropper matrices also
    depend on the channel-use index in time-varying mode.  With a sequence
    of ``RngStream``s every matrix is stacked along a leading trial axis,
    and all the addresses are seeded in one batch; each member equals the
    draw at its own stream.
    """
    rngs = [rng] if isinstance(rng, RngStream) else list(rng)
    keys = [_spawn_key(_DOMAIN_LEGIT, r.stream_id[0]) for r in rngs]
    per_use = mode.varies_per_use
    keys += [_spawn_key(_DOMAIN_EVE, r.stream_id[0], r.stream_id[1] if per_use else None) for r in rngs]
    gens = _generators([r.master_seed for r in rngs] * 2, keys)
    h1, h2 = _complex_gaussian_pairs(gens, len(rngs), config.n, config.m1, config.m2)
    g1, g2 = _complex_gaussian_pairs(gens, len(rngs), config.n_e, config.m1, config.m2)
    if isinstance(rng, RngStream):
        return ChannelRealization(h1[0], h2[0], g1[0], g2[0])
    return ChannelRealization(h1, h2, g1, g2)


def _on_slots(m: np.ndarray, slots: int) -> np.ndarray:
    """A per-slot matrix (or stack) held over the slots of a ``slots``-slot set."""
    return slot_extend(m) if slots == 2 else m


def channel_uses(
    config: AntennaConfig,
    trial_ch: ChannelRealization,
    trial_rngs: Sequence[RngStream],
    uses: Sequence[int],
    mode: EveMode,
    slots: int,
) -> ChannelRealization:
    """The realizations a ``slots``-slot precoder set sees in channel uses ``uses``, per trial.

    ``trial_ch`` is ``sample_channels(config, trial_rngs, mode)``, each
    stream at address (trial, 0).  Every matrix of the result is on the slot
    space, with a leading trial axis.  The legitimate matrices are the
    trials', held over both slots, and so is a static eavesdropper, whose g1
    and g2 carry no use axis.  A time-varying one's g1 and g2 carry a use
    axis after the trial axis, one entry per use of ``uses`` (nonempty and
    strictly increasing): slot s of use k holds fresh CN(0, 1) eavesdropper
    matrices drawn at address (trial, 2k + s), where (trial, 0) is the
    trial draw, and every fresh draw of the stack is seeded in one batch.
    """
    if any(r.stream_id[1] != 0 for r in trial_rngs):
        raise ValueError("trial_rng must address channel use 0 of its trial")
    h1, h2 = _on_slots(trial_ch.h1, slots), _on_slots(trial_ch.h2, slots)
    if not mode.varies_per_use:
        g1, g2 = _on_slots(trial_ch.g1, slots), _on_slots(trial_ch.g2, slots)
        return ChannelRealization(h1, h2, g1, g2)
    trials, uses = len(trial_rngs), list(uses)
    if not uses or any(b <= a for a, b in zip(uses, uses[1:])):
        raise ValueError("uses must be a nonempty, strictly increasing sequence")
    addresses = [2 * use + s for use in uses for s in range(slots)]
    held = addresses[0] == 0  # address (trial, 0) is the trial draw
    new = addresses[held:]
    per_address = [[g[:, None]] if held else [] for g in (trial_ch.g1, trial_ch.g2)]
    if new:
        keys = [_spawn_key(_DOMAIN_EVE, r.stream_id[0], a) for r in trial_rngs for a in new]
        seeds = [r.master_seed for r in trial_rngs for _ in new]
        gens = _generators(seeds, keys)
        drawn = _complex_gaussian_pairs(gens, len(keys), config.n_e, config.m1, config.m2)
        for parts, fresh in zip(per_address, drawn):
            parts.append(fresh.reshape(trials, len(new), *fresh.shape[1:]))
    blocks = []
    for parts in per_address:
        g = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        g = g.reshape(trials, len(uses), slots, *g.shape[2:])
        blocks.append(g[:, :, 0] if slots == 1 else slot_extend(g[:, :, 0], g[:, :, 1]))
    return ChannelRealization(h1, h2, *blocks)


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
    ``trial_rng`` at address (trial, 0).  This is ``channel_uses`` for one
    trial and one use: the legitimate matrices are the trial's, held over
    both slots, and so is a static eavesdropper; a time-varying one draws
    fresh CN(0, 1) eavesdropper matrices alone for slot s at address
    (trial, 2 * use + s), where (trial, 0) is the trial draw.
    """
    h1, h2, g1, g2 = (m[None] for m in (trial_ch.h1, trial_ch.h2, trial_ch.g1, trial_ch.g2))
    seen = channel_uses(config, ChannelRealization(h1, h2, g1, g2), [trial_rng], [use], mode, slots)
    g1, g2 = (seen.g1[0, 0], seen.g2[0, 0]) if mode.varies_per_use else (seen.g1[0], seen.g2[0])
    return ChannelRealization(seen.h1[0], seen.h2[0], g1, g2)


def jamming_generators(rngs: Sequence[RngStream]) -> list[np.random.Generator]:
    """Per-trial generators for random jamming directions, seeded in one batch."""
    keys = [_spawn_key(_DOMAIN_JAMMING, r.stream_id[0]) for r in rngs]
    return list(_generators([r.master_seed for r in rngs], keys))


def slot_extend(first: np.ndarray, second: np.ndarray | None = None) -> np.ndarray:
    """Two-slot block-diagonal extension diag(first, second) of a per-slot matrix.

    ``second`` defaults to ``first``: the matrix is held fixed across both
    slots.  Pass the second slot's draw for a channel that changes between
    them.  Stacks of matrices, with equal leading axes, extend member by
    member.
    """
    if second is None:
        second = first
    rows, cols = first.shape[-2:]
    out = np.zeros(
        first.shape[:-2] + (rows + second.shape[-2], cols + second.shape[-1]),
        dtype=np.result_type(first, second),
    )
    out[..., :rows, :cols] = first
    out[..., rows:, cols:] = second
    return out
