"""Random channel realizations, the eavesdropper model and the Gaussian signal model.

Every function here works on a stack of trials: it takes one ``RngStream``
(master seed, trial index) per trial and returns matrices with a leading
trial axis.  A trial draws its complex channels once; ``channel_uses``
gives the channels a precoder set sees in a run of channel uses,
redrawing a time-varying eavesdropper for use k at address 2k of its
trial, where use 0 reuses the trial's own draw.  ``channel_uses`` is the
one place a channel use is named.  All draws are pure functions of
(master seed, trial index, address), so a trial's draws do not depend on
its stack, and trials can run in any order or in parallel with identical
results.

Signals are real-valued (asymmetric complex signalling): a precoder acts
on ``real_form`` of each complex channel, [[Re H, -Im H], [Im H, Re H]],
the map of one channel use on the real and imaginary parts of its input.
Allocations count real streams (``sdof``), so every allocation is
realized in a single channel use.  ``real_form`` is
the one place a channel enters the library: it rejects non-finite
entries and empty stacks.

Every address seeds its own PCG64 generator as NumPy's ``SeedSequence``
of the master seed and a spawn key (domain, trial) would, or (domain,
trial, 2k) for use k of a time-varying eavesdropper.  Each batch of
addresses (a stack of trials in ``sample_channels``, the uses of
``channel_uses``, the jamming streams of a stacked build) is hashed in one
vectorised pass over integer arrays of its master seeds, domains, trials
and uses that reproduces ``SeedSequence`` bit for bit, and each generator
is seeded straight from its state words; an empty batch hashes nothing.

Every draw reads the leading standard normals of its streams, one
generator per address filling a row with one ``standard_normal`` call
(``TrialNormals``): a stream's first L normals do not depend on how many
more are drawn, so a caller that draws many configurations on the same
trials, as ``verify`` does, fills each stream once at the longest length
it needs and every configuration reads its own prefix.  Every way, every
draw is the same.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .sdof import AntennaConfig
from .subspaces import as_matrix

__all__ = [
    "EveMode",
    "RngStream",
    "SignalParams",
    "ChannelRealization",
    "sample_channels",
    "channel_uses",
    "real_form",
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
    """Addressable randomness: a master seed plus a trial index.

    The trial's channel uses are addressed by ``channel_uses``.
    """

    master_seed: int
    trial: int = 0

    def __post_init__(self):
        for name in ("master_seed", "trial"):
            value = getattr(self, name)
            if not _is_word(value):
                raise ValueError(f"{name} must be a 64-bit nonnegative integer, got {value!r}")


def _is_word(value) -> bool:
    """Whether ``value`` is an integer in [0, 2**64): a NumPy integer too, a bool or a float never.

    The seed hash casts to uint64, so a fractional or boolean value would
    silently seed the integer it truncates to.
    """
    return (type(value) is int or isinstance(value, np.integer)) and 0 <= value < 2**64


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


def _key_entropy(keys, lengths) -> tuple[np.ndarray, np.ndarray]:
    """The entropy words ``SeedSequence`` assembles from every spawn key: (words, K) uint32, and each key's size.

    ``keys`` is (K, L).  The master seed (below 2**64) is padded to the
    pool size, as NumPy does when a spawn key follows, so it takes words
    0-3 whether it has one word or two (``_seed_pools``); row w here is
    word 4 + w.  Each key component then adds one word, or two from 2**32
    on; key k ends after its first ``lengths[k]`` components (all L if
    None).  A size counts every word of its key, the master seed's four too.
    """
    components = keys.T  # (L, K), one row per component
    words = 1 + (components > _LOW32).view(np.uint8)
    ends = np.cumsum(words, axis=0, dtype=np.intp)
    column = np.arange(len(keys))
    sizes = ends[-1] if lengths is None else ends[lengths - 1, column]
    # A uint32 row takes the low word of what it is given.  Every component
    # writes its high word after its low one, where a narrow component's
    # (zero) is overwritten by the next component's low word; the entries
    # past a key's end write rows its hash never reads.
    rows = np.zeros((ends[-1].max() + 1, len(keys)), np.uint32)
    rows[ends - words + 1, column] = components >> np.uint64(32)
    rows[ends - words, column] = components
    return rows[: sizes.max()], _POOL_SIZE + sizes


@functools.lru_cache(maxsize=1)
def _seed_pools(seeds: bytes) -> np.ndarray:
    """The hash pool of every master seed of ``seeds``, packed uint64 words, once its own words are mixed: (4, S) uint32.

    Every key hashed under a master seed starts from its pool, so the pools
    of the last call's seeds are kept: all the batches of a sweep share one
    master seed.  The array is read-only.
    """
    seeds = np.frombuffer(seeds, np.uint64)
    entropy = np.zeros((_POOL_SIZE, len(seeds)), np.uint32)
    entropy[0] = seeds
    entropy[1] = seeds >> np.uint64(32)
    steps = _mix_schedule(_POOL_SIZE)
    pool = _hashmix(entropy, *steps[0])
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hashmix(pool[src], *steps[1 + src]))
        mixed[src] = pool[src]
        pool = mixed
    pool.flags.writeable = False
    return pool


def _seed_words(master_seed, keys, lengths=None) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=key).generate_state(4, uint64)`` for every key.

    ``keys`` is an (..., L) integer array, a spawn key along its last axis:
    the first ``lengths`` entries (all L when None, at least one), below
    2**64.  ``master_seed`` and ``lengths`` broadcast against the leading
    axes.  All keys are hashed together, each from the pool of its master
    seed, which is mixed once per distinct seed (``_seed_pools``): a key
    shorter than the longest stops mixing at its own last word.  Returns
    (K, 4) uint64, the keys in C order, (0, 4) for no keys.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if not keys.size:
        return np.empty((0, _POOL_SIZE), np.uint64)
    lead = keys.shape[:-1]
    seeds = np.broadcast_to(np.asarray(master_seed, dtype=np.uint64), lead).ravel()
    if lengths is not None:
        lengths = np.broadcast_to(lengths, lead).ravel()
    entropy, sizes = _key_entropy(keys.reshape(len(seeds), -1), lengths)
    steps = _mix_schedule(_POOL_SIZE + len(entropy))
    distinct, inverse = np.unique(seeds, return_inverse=True)
    pool = _seed_pools(distinct.tobytes())[:, inverse]
    shortest = sizes.min()
    for word, row in enumerate(entropy, _POOL_SIZE):
        mixed = _mix(pool, _hashmix(row, *steps[1 + word]))
        pool = mixed if word < shortest else np.where(word < sizes, mixed, pool)
    state = _hashmix(np.concatenate([pool, pool]), *_STATE_CONSTANTS).astype(np.uint64)
    # Little-endian pairs of uint32 words, as generate_state views them;
    # PCG64 reads each key's row as contiguous memory.
    return np.ascontiguousarray((state[0::2] | (state[1::2] << np.uint64(32))).T)


class _StateWords(ISeedSequence):
    """A seed sequence already hashed: hands PCG64 the four words it asks for, those of ``words``."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL_SIZE or dtype is not np.uint64:
            raise ValueError("hashed seed words serve generate_state(4, np.uint64) only")
        return self.words


def _normals(words, count: int, length: int) -> np.ndarray:
    """The first ``length`` standard normals of the next ``count`` streams of ``words``: (count, length).

    ``words`` iterates over ``_seed_words`` rows.  Each row seeds a PCG64
    generator, through one ``_StateWords`` pointed at each row in turn,
    that fills its own row of the result with one ``standard_normal``
    call.  Rows without entries draw nothing, so no row is taken from
    ``words`` and no generator is made.
    """
    z = np.empty((count, length))
    if length:
        generator, pcg64, seed = np.random.Generator, np.random.PCG64, _StateWords()
        for row, state in zip(z, words):
            seed.words = state
            generator(pcg64(seed)).standard_normal(out=row)
    return z


def _stream_columns(rngs: Sequence[RngStream]) -> tuple[np.ndarray, np.ndarray]:
    """The master seeds and trial indices of ``rngs``, as two uint64 arrays."""
    columns = np.array([(r.master_seed, r.trial) for r in rngs], np.uint64).reshape(-1, 2)
    return columns[:, 0], columns[:, 1]


@dataclass(frozen=True)
class SignalParams:
    """Total transmit power (linear) and jamming power fraction, over unit noise.

    The noise is N(0, 1/2) per real dimension, unit power per complex
    dimension, so ``p`` is the signal-to-noise ratio: one power or a 1-D
    array of them, one per point of a power grid; every point shares
    ``alpha``.
    """

    p: float | np.ndarray
    alpha: float = 0.5

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim:  # a grid is held as one float array
            object.__setattr__(self, "p", p)
        if p.ndim > 1 or not (np.isfinite(p) & (p >= 0)).all():
            raise ValueError("p must be finite and nonnegative, one power or a 1-D grid of them")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    @classmethod
    def from_db(cls, p_db, alpha: float = 0.5) -> "SignalParams":
        """The signal at one power level in dB or, given a sequence of levels, at each of them.

        Each level converts as a Python float: ``np.power`` differs in the
        last bit at some levels, and so would every rate at them.
        """
        levels = np.asarray(p_db, dtype=float)
        try:
            powers = [10.0 ** (level / 10.0) for level in levels.ravel().tolist()]
        except OverflowError:
            raise ValueError(f"power {np.nanmax(levels)} dB is past the float range") from None
        return cls(np.reshape(powers, levels.shape) if levels.ndim else powers[0], alpha)

    def stream_snrs(self, legit_cols: int, jam_cols: int) -> np.ndarray:
        """Per-stream (legitimate, jamming) signal-to-noise ratios at each power level, (2, grid).

        The legitimate budget (1 - alpha) p is split evenly over the
        ``legit_cols`` legitimate real streams and the jamming budget
        alpha p over the ``jam_cols`` jamming real streams, so the transmit
        covariances have trace p per channel use; each stream's power is
        then taken over the real noise variance 1/2.  A zero-stream budget
        gives 0 and an overflowed value ``inf``.  A scalar ``p`` is a grid
        of one.
        """
        snrs = np.zeros((2, np.size(self.p)))
        with np.errstate(over="ignore"):  # an overflow is inf, as in floats
            if legit_cols:
                snrs[0] = (1.0 - self.alpha) * self.p / legit_cols
            if jam_cols:
                snrs[1] = self.alpha * self.p / jam_cols
            return snrs / 0.5


@dataclass(frozen=True)
class ChannelRealization:
    """The four complex channel matrices of a stack of trials.

    h1 (trials, n, m1) and h2 (trials, n, m2) connect the transmitters to
    the legitimate receiver; g1 (trials, n_e, m1) and g2 (trials, n_e, m2)
    connect them to the eavesdropper.  n_e may be zero, giving empty g
    matrices.  In the realizations of ``channel_uses``, g1 and g2 carry a
    channel-use axis after the trial axis.
    """

    h1: np.ndarray
    h2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


_SQRT_HALF = np.sqrt(0.5)


def _complex_gaussian_pairs(z: np.ndarray, rows: int, cols1: int, cols2: int):
    """Two stacks of i.i.d. CN(0, 1) matrices, rows x cols1 and rows x cols2, from the normals ``z``.

    ``z`` holds one row of standard normals per stack member; its leading
    entries are read in the order real 1, imaginary 1, real 2, imaginary
    2, and any further entries are left alone.
    """
    a, b = rows * cols1, rows * cols2
    if z.shape[-1] < 2 * (a + b):
        raise ValueError(f"{z.shape[-1]} normals per row, the matrices need {2 * (a + b)}")
    first = _SQRT_HALF * (z[:, :a] + 1j * z[:, a : 2 * a])
    second = _SQRT_HALF * (z[:, 2 * a : 2 * a + b] + 1j * z[:, 2 * a + b : 2 * (a + b)])
    return first.reshape(len(z), rows, cols1), second.reshape(len(z), rows, cols2)


def draw_lengths(config: AntennaConfig) -> tuple[int, int]:
    """Normals a draw of ``config`` reads from each trial's legitimate and eavesdropper streams."""
    m = config.m1 + config.m2
    return 2 * config.n * m, 2 * config.n_e * m


@dataclass(frozen=True)
class TrialNormals:
    """The leading standard normals of a stack of trials' streams in each domain.

    ``legit``, ``eve`` and ``jamming`` are (trials, L) arrays, one row per
    stream, each L the caller's; row t holds the first L normals of the
    stream's legitimate, eavesdropper or precoder-randomness address.
    Every draw is a prefix of these rows, so one instance serves any
    configuration whose ``draw_lengths`` (and, for a build, jamming
    length) fit them.
    """

    legit: np.ndarray
    eve: np.ndarray
    jamming: np.ndarray

    @classmethod
    def draw(
        cls,
        rngs: Sequence[RngStream],
        mode: EveMode = EveMode.STATIC,
        legit: int = 0,
        eve: int = 0,
        jamming: int = 0,
    ) -> "TrialNormals":
        """The first ``legit``, ``eve`` and ``jamming`` normals of every stream of ``rngs`` in its domain.

        All the addresses of nonempty rows are seeded in one batch; a
        domain that draws nothing seeds nothing.  ``mode`` picks the
        eavesdropper addresses: (trial) when static, and (trial, 0), the
        address of channel use 0 in ``channel_uses``, when time-varying.
        """
        seeds, trial = _stream_columns(rngs)
        # Spawn keys (domain, trial[, 0]): only a time-varying eavesdropper reads the 0.
        domains = (
            (legit, _DOMAIN_LEGIT, 2),
            (eve, _DOMAIN_EVE, 3 if mode.varies_per_use else 2),
            (jamming, _DOMAIN_JAMMING, 2),
        )
        seeded = [(domain, key_length) for length, domain, key_length in domains if length]
        keys = np.zeros((len(seeded), len(rngs), 3), np.uint64)
        keys[..., 0] = np.reshape([domain for domain, _ in seeded], (-1, 1))
        keys[..., 1] = trial
        words = iter(_seed_words(seeds, keys, [[key_length] for _, key_length in seeded]))
        return cls(*(_normals(words, len(rngs), length) for length, _, _ in domains))

    def channels(self, config: AntennaConfig) -> ChannelRealization:
        """The channel realization of ``config`` on these trials: ``sample_channels`` bit for bit."""
        h1, h2 = _complex_gaussian_pairs(self.legit, config.n, config.m1, config.m2)
        return ChannelRealization(h1, h2, *self.eavesdropper(config))

    def eavesdropper(self, config: AntennaConfig) -> tuple[np.ndarray, np.ndarray]:
        """The (trials, n_e, m1) g1 and (trials, n_e, m2) g2 stacks of ``config``."""
        return _complex_gaussian_pairs(self.eve, config.n_e, config.m1, config.m2)


def sample_channels(
    config: AntennaConfig, rngs: Sequence[RngStream], mode: EveMode
) -> ChannelRealization:
    """Draw the channel realization of every trial of ``rngs``.

    Entries are i.i.d. circularly-symmetric complex Gaussian CN(0, 1), which
    makes all subspace positions generic almost surely.  The matrices
    depend only on the master seed and the trial index; a time-varying
    eavesdropper's are those of the trial's channel use 0
    (``channel_uses``), a static one's its own.  Every matrix is
    stacked along a leading trial axis, one member per stream, and all the
    addresses are seeded in one batch; each member equals the draw at its
    own stream, whatever the rest of the stack.  With n_e = 0 the
    eavesdropper matrices are empty and none of its addresses is seeded.
    """
    legit, eve = draw_lengths(config)
    return TrialNormals.draw(rngs, mode, legit, eve).channels(config)


def channel_uses(
    config: AntennaConfig,
    trial_ch: ChannelRealization,
    trial_rngs: Sequence[RngStream],
    uses: Sequence[int],
    mode: EveMode,
) -> ChannelRealization:
    """The realizations a precoder set sees in channel uses ``uses``, per trial.

    ``trial_ch`` is ``sample_channels(config, trial_rngs, mode)`` and
    ``uses`` is nonempty, strictly increasing and within [0, 2**63).
    Every matrix of the result has a leading trial axis; g1 and g2 also
    carry a use axis after it.  The legitimate matrices are the trials'.
    A static eavesdropper is too, on a use axis of length 1 that
    broadcasts over ``uses``.  A time-varying one has one entry per use of
    ``uses``: use k holds CN(0, 1) eavesdropper matrices drawn at spawn
    key (1, trial, 2k).  Use 0 is the trial's own eavesdropper, read from
    ``trial_ch`` and not drawn again; every other draw of the stack is
    hashed from address arrays in one batch (none when n_e = 0).
    """
    trials, uses = len(trial_rngs), list(uses)
    if not uses or uses[0] < 0 or uses[-1] >= 2**63 or any(b <= a for a, b in zip(uses, uses[1:])):
        raise ValueError("uses must be a nonempty, strictly increasing sequence in [0, 2**63)")
    if not mode.varies_per_use:
        return ChannelRealization(trial_ch.h1, trial_ch.h2, trial_ch.g1[:, None], trial_ch.g2[:, None])
    # Use k is drawn at address 2k, and use 0 is the trial's own draw.  The odd
    # addresses stay unused, so the pinned draws (DRAW_DIGEST in the tests),
    # and the Monte Carlo results that rest on them, keep their values.
    own = uses[0] == 0
    addresses = 2 * np.array(uses[own:], np.uint64)  # of the uses still to draw
    _, length = draw_lengths(config)
    words = ()  # an absent eavesdropper draws nothing and seeds nothing
    if length:
        seeds, trial = _stream_columns(trial_rngs)
        keys = np.empty((trials, len(addresses), 3), np.uint64)
        keys[..., 0] = _DOMAIN_EVE
        keys[..., 1] = trial[:, None]
        keys[..., 2] = addresses
        words = _seed_words(seeds[:, None], keys)
    z = _normals(words, trials * len(addresses), length)
    drawn = _complex_gaussian_pairs(z, config.n_e, config.m1, config.m2)
    g1, g2 = (g.reshape(trials, len(addresses), *g.shape[1:]) for g in drawn)
    if own:
        g1, g2 = (np.concatenate([g[:, None], d], axis=1) for g, d in ((trial_ch.g1, g1), (trial_ch.g2, g2)))
    return ChannelRealization(trial_ch.h1, trial_ch.h2, g1, g2)


def real_form(stack, name: str) -> np.ndarray:
    """The real representation [[Re A, -Im A], [Im A, Re A]] of every complex matrix of a stack.

    ``stack`` is a (trials, ..., rows, cols) array of channel matrices: a
    draw (trials, rows, cols) or the realizations of ``channel_uses``
    (trials, uses, rows, cols).  The result is float64, (trials, ...,
    2 rows, 2 cols), and maps the stacked real and imaginary parts of an
    input to those of the output.  InvalidMatrix means the stack is empty,
    has a matrix without rows, or has a non-finite entry, in which case
    the error's ``member`` names the trial.
    """
    a = as_matrix(stack, name)
    rows, cols = a.shape[-2:]
    out = np.empty(a.shape[:-2] + (2 * rows, 2 * cols))
    out[..., :rows, :cols] = out[..., rows:, cols:] = a.real
    out[..., rows:, :cols] = a.imag
    np.negative(a.imag, out=out[..., :rows, cols:])
    return out
