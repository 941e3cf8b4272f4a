import hashlib

import numpy as np
import pytest

from helpers import block_diag2, crandn, elimination_rank
from sdoflab import (
    AntennaConfig,
    EveMode,
    RngStream,
    SignalParams,
    channel_use,
    sample_channels,
)
from sdoflab.channel import (
    SEED_HASH_MIN_KEYS,
    _generators,
    _seed_words,
    _spawn_key,
    channel_uses,
    jamming_generators,
    slot_extend,
)

# SHA-256 of _draw_digest() below: the channel stream every Monte Carlo result rests on.
DRAW_DIGEST = "06b9acd788148f629348af498eef5cf67dac7221adb4bcaa8b6f2e377de27edc"


def _generator(rng, domain):
    """The generator that ``rng``'s address seeds in ``domain``, as the library's draws make it."""
    return next(_generators([rng.master_seed], [_spawn_key(domain, *rng.stream_id)]))


class TestRngStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(3, (-1, 0))

    def test_same_address_same_draws(self):
        a = _generator(RngStream(42, (5, 3)), 0).standard_normal(8)
        b = _generator(RngStream(42, (5, 3)), 0).standard_normal(8)
        assert np.array_equal(a, b)

    def test_components_fit_64_bits(self):
        RngStream(2**64 - 1, (2**64 - 1, 2**64 - 1))
        with pytest.raises(ValueError):
            RngStream(3, (2**64, 0))
        with pytest.raises(ValueError):
            RngStream(3, (0, 2**64))

    def test_domains_are_distinct(self):
        a = _generator(RngStream(42, (5, 3)), 0).standard_normal(8)
        b = _generator(RngStream(42, (5, 3)), 1).standard_normal(8)
        assert not np.array_equal(a, b)


class TestSampleChannels:
    def test_shapes_and_rank(self):
        config = AntennaConfig(2, 2, 3, 2)
        ch = sample_channels(config, RngStream(1), EveMode.STATIC)
        assert ch.h1.shape == (3, 2)
        assert ch.h2.shape == (3, 2)
        assert ch.g1.shape == (2, 2)
        assert elimination_rank(ch.h1) == 2

    def test_no_eavesdropper_gives_empty_g(self):
        ch = sample_channels(AntennaConfig(2, 1, 2, 0), RngStream(1), EveMode.STATIC)
        assert ch.g1.shape == (0, 2)

    def test_determinism(self):
        config = AntennaConfig(3, 2, 4, 1)
        first = sample_channels(config, RngStream(9, (2, 1)), EveMode.STATIC)
        second = sample_channels(config, RngStream(9, (2, 1)), EveMode.STATIC)
        assert np.array_equal(first.h1, second.h1)
        assert np.array_equal(first.g2, second.g2)

    def test_legit_static_across_uses_eve_varies(self):
        config = AntennaConfig(2, 2, 3, 2)
        use0 = sample_channels(config, RngStream(7, (0, 0)), EveMode.TIME_VARYING)
        use1 = sample_channels(config, RngStream(7, (0, 1)), EveMode.TIME_VARYING)
        assert np.array_equal(use0.h1, use1.h1)
        assert not np.array_equal(use0.g1, use1.g1)

    def test_static_eve_ignores_use_index(self):
        config = AntennaConfig(2, 2, 3, 2)
        use0 = sample_channels(config, RngStream(7, (0, 0)), EveMode.STATIC)
        use1 = sample_channels(config, RngStream(7, (0, 5)), EveMode.STATIC)
        assert np.array_equal(use0.g1, use1.g1)

    def test_empirical_moments(self):
        # pool ~1e5 entries from one large draw
        config = AntennaConfig(220, 230, 222, 0)
        ch = sample_channels(config, RngStream(123), EveMode.STATIC)
        entries = np.concatenate([ch.h1.ravel(), ch.h2.ravel()])
        assert entries.size >= 99_000
        assert np.var(entries) == pytest.approx(1.0, abs=0.02)
        assert abs(entries.mean()) < 0.02


class TestSignalParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignalParams(-1.0)
        with pytest.raises(ValueError):
            SignalParams(1.0, alpha=0.0)
        with pytest.raises(ValueError):
            SignalParams(1.0, sigma2=0.0)

    def test_from_db(self):
        assert SignalParams.from_db(30.0).p == pytest.approx(1000.0)


class TestSlotExtend:
    def test_repeats_first_block_by_default(self):
        a = crandn(np.random.default_rng(3), 2, 3)
        assert np.array_equal(slot_extend(a), np.kron(np.eye(2), a))

    def test_second_slot_draw_on_the_diagonal(self):
        gen = np.random.default_rng(4)
        a, b = crandn(gen, 2, 3), crandn(gen, 2, 3)
        out = slot_extend(a, b)
        assert out.shape == (4, 6)
        assert np.array_equal(out[:2, :3], a)
        assert np.array_equal(out[2:, 3:], b)
        assert not out[:2, 3:].any() and not out[2:, :3].any()


class TestChannelUse:
    """channel_use against oracles drawn here with sample_channels and np.kron."""

    config = AntennaConfig(2, 2, 3, 2)
    seed, trial = 7, 3

    def trial_draw(self, mode):
        rng = RngStream(self.seed, (self.trial, 0))
        return rng, sample_channels(self.config, rng, mode)

    def draw_at(self, address):
        rng = RngStream(self.seed, (self.trial, address))
        return sample_channels(self.config, rng, EveMode.TIME_VARYING)

    @pytest.mark.parametrize("use", [0, 1, 4])
    def test_time_varying_slot_s_of_use_k_is_the_draw_at_2k_plus_s(self, use):
        rng, trial = self.trial_draw(EveMode.TIME_VARYING)
        seen = channel_use(self.config, trial, rng, use, EveMode.TIME_VARYING, 2)
        ne, m1, m2 = self.config.n_e, self.config.m1, self.config.m2
        a, b = self.draw_at(2 * use), self.draw_at(2 * use + 1)
        assert np.array_equal(seen.g1, block_diag2(a.g1, b.g1))
        assert np.array_equal(seen.g2, block_diag2(a.g2, b.g2))
        assert seen.g1.shape == (2 * ne, 2 * m1) and seen.g2.shape == (2 * ne, 2 * m2)
        assert not np.array_equal(a.g1, b.g1)

    def test_slot_a_of_use_0_is_the_trial_draw(self):
        rng, trial = self.trial_draw(EveMode.TIME_VARYING)
        seen = channel_use(self.config, trial, rng, 0, EveMode.TIME_VARYING, 2)
        ne, m1 = self.config.n_e, self.config.m1
        assert np.array_equal(seen.g1[:ne, :m1], trial.g1)
        assert np.array_equal(seen.g1[:ne, :m1], self.draw_at(0).g1)

    @pytest.mark.parametrize("use", [0, 2])
    def test_static_slots_carry_the_trial_eavesdropper(self, use):
        rng, trial = self.trial_draw(EveMode.STATIC)
        seen = channel_use(self.config, trial, rng, use, EveMode.STATIC, 2)
        assert np.array_equal(seen.g1, np.kron(np.eye(2), trial.g1))
        assert np.array_equal(seen.g2, np.kron(np.eye(2), trial.g2))

    @pytest.mark.parametrize("mode", list(EveMode))
    def test_legitimate_blocks_hold_the_trial_draw(self, mode):
        rng, trial = self.trial_draw(mode)
        seen = channel_use(self.config, trial, rng, 3, mode, 2)
        assert np.array_equal(seen.h1, np.kron(np.eye(2), trial.h1))
        assert np.array_equal(seen.h2, np.kron(np.eye(2), trial.h2))

    @pytest.mark.parametrize("use", [0, 3])
    def test_single_slot_use_k_is_the_draw_at_2k(self, use):
        rng, trial = self.trial_draw(EveMode.TIME_VARYING)
        seen = channel_use(self.config, trial, rng, use, EveMode.TIME_VARYING, 1)
        oracle = self.draw_at(2 * use)
        assert np.array_equal(seen.h1, trial.h1) and np.array_equal(seen.h2, trial.h2)
        assert np.array_equal(seen.g1, oracle.g1) and np.array_equal(seen.g2, oracle.g2)

    def test_trial_rng_must_address_use_0(self):
        rng, trial = self.trial_draw(EveMode.TIME_VARYING)
        later = RngStream(self.seed, (self.trial, 1))
        with pytest.raises(ValueError):
            channel_use(self.config, trial, later, 0, EveMode.TIME_VARYING, 1)


def _seed_sequence_words(master, keys):
    return np.array(
        [np.random.SeedSequence(entropy=master, spawn_key=k).generate_state(4, np.uint64) for k in keys]
    )


# Key components that take one uint32 word and ones that take two.
_COMPONENTS = (0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**33 + 5, 2**63, 2**64 - 1)


def _keys(count, seed):
    """``count`` spawn keys of length 2 and 3, components one and two words wide."""
    gen = np.random.default_rng(seed)

    def pick():
        if gen.random() < 0.5:
            return _COMPONENTS[int(gen.integers(len(_COMPONENTS)))]
        return int(gen.integers(0, 2**62))

    return [tuple(pick() for _ in range(int(gen.integers(2, 4)))) for _ in range(count)]


class TestSeedWords:
    """The vectorised hash against NumPy's own SeedSequence."""

    masters = [0, 2**32 - 1, 2**32, 2**64 - 1, 12_345, 2**40 + 17, 9_876_543_210_123_456_789]
    counts = [1, SEED_HASH_MIN_KEYS - 1, SEED_HASH_MIN_KEYS, 40]

    @pytest.mark.parametrize("master", masters)
    @pytest.mark.parametrize("count", counts)
    def test_matches_seed_sequence(self, master, count):
        keys = _keys(count, seed=count + master % 1000)
        assert np.array_equal(_seed_words(master, keys), _seed_sequence_words(master, keys))

    @pytest.mark.parametrize("length", [2, 3])
    def test_a_master_seed_per_key(self, length):
        gen = np.random.default_rng(length)
        keys = gen.integers(0, 2**63, size=(25, length), dtype=np.uint64)
        keys[::4, -1] = np.uint64(2**64 - 1)
        keys[1::4, 0] = 5
        masters = gen.integers(0, 2**63, size=25, dtype=np.uint64).tolist()
        masters[0] = 2**64 - 1
        keys = [tuple(k) for k in keys.tolist()]
        got = _seed_words(masters, keys)
        for m, k, words in zip(masters, keys, got):
            assert np.array_equal(words, _seed_sequence_words(m, [k])[0])

    @pytest.mark.parametrize("count", counts)
    def test_generators_draw_as_seed_sequence_ones(self, count):
        keys = _keys(count, seed=99)
        masters = [(3 * i) << 33 for i in range(count)]
        drawn = [g.standard_normal(6) for g in _generators(masters, keys)]
        for m, k, z in zip(masters, keys, drawn):
            oracle = np.random.default_rng(np.random.SeedSequence(entropy=m, spawn_key=k))
            assert np.array_equal(z, oracle.standard_normal(6))

    @pytest.mark.parametrize("count", [1, SEED_HASH_MIN_KEYS + 3])
    def test_jamming_generators_match_each_stream_alone(self, count):
        rngs = [RngStream(8, (t, 0)) for t in range(count)]
        for rng, gen in zip(rngs, jamming_generators(rngs)):
            assert np.array_equal(gen.standard_normal(5), jamming_generators([rng])[0].standard_normal(5))


class TestStackedDraws:
    """Stacked draws equal the per-address calls member by member, on both sides of the crossover."""

    @pytest.mark.parametrize("mode", list(EveMode))
    @pytest.mark.parametrize("trials", [1, 3, SEED_HASH_MIN_KEYS + 2])
    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (3, 2, 4, 1), (2, 1, 2, 0)])
    def test_sample_channels(self, cfg, trials, mode):
        config = AntennaConfig(*cfg)
        rngs = [RngStream(2**40 + 3, (2**32 + t, 2 * t)) for t in range(trials)]
        stacked = sample_channels(config, rngs, mode)
        for i, rng in enumerate(rngs):
            alone = sample_channels(config, rng, mode)
            for name in ("h1", "h2", "g1", "g2"):
                assert np.array_equal(getattr(stacked, name)[i], getattr(alone, name))

    @pytest.mark.parametrize("mode", list(EveMode))
    @pytest.mark.parametrize("slots", [1, 2])
    @pytest.mark.parametrize("trials", [1, SEED_HASH_MIN_KEYS + 1])
    def test_channel_uses(self, trials, slots, mode):
        config = AntennaConfig(3, 2, 4, 2)
        rngs = [RngStream(17, (t, 0)) for t in range(trials)]
        draws = sample_channels(config, rngs, mode)
        uses = [0, 1, 4]
        seen = channel_uses(config, draws, rngs, uses, mode, slots)
        for i, rng in enumerate(rngs):
            trial = sample_channels(config, rng, mode)
            for j, use in enumerate(uses):
                alone = channel_use(config, trial, rng, use, mode, slots)
                g1, g2 = (seen.g1[i, j], seen.g2[i, j]) if mode.varies_per_use else (seen.g1[i], seen.g2[i])
                assert np.array_equal(seen.h1[i], alone.h1) and np.array_equal(seen.h2[i], alone.h2)
                assert np.array_equal(g1, alone.g1) and np.array_equal(g2, alone.g2)


def _draw_digest() -> str:
    """SHA-256 over trial draws and channel uses for fixed seeds, both modes, 1 and 2 slots."""
    digest = hashlib.sha256()
    for cfg in ((2, 2, 3, 1), (3, 2, 4, 2), (2, 1, 2, 0)):
        config = AntennaConfig(*cfg)
        for seed, trial in ((0, 0), (11, 4)):
            for mode in EveMode:
                rng = RngStream(seed, (trial, 0))
                trial_ch = sample_channels(config, rng, mode)
                seen = [
                    channel_use(config, trial_ch, rng, use, mode, slots)
                    for slots in (1, 2)
                    for use in (0, 1, 3)
                ]
                for ch in (trial_ch, *seen):
                    for mat in (ch.h1, ch.h2, ch.g1, ch.g2):
                        digest.update(repr(mat.shape).encode())
                        digest.update(np.ascontiguousarray(mat).tobytes())
    return digest.hexdigest()


def test_draws_are_pinned_bit_for_bit():
    # Any change to how channels are drawn (call order, sizes, scaling)
    # moves every Monte Carlo result; this pins the stream.
    assert _draw_digest() == DRAW_DIGEST
