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
from sdoflab.channel import slot_extend

# SHA-256 of _draw_digest() below: the channel stream every Monte Carlo result rests on.
DRAW_DIGEST = "06b9acd788148f629348af498eef5cf67dac7221adb4bcaa8b6f2e377de27edc"


class TestRngStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(3, (-1, 0))

    def test_same_address_same_draws(self):
        a = RngStream(42, (5, 3)).generator(0).standard_normal(8)
        b = RngStream(42, (5, 3)).generator(0).standard_normal(8)
        assert np.array_equal(a, b)

    def test_domains_are_distinct(self):
        a = RngStream(42, (5, 3)).generator(0).standard_normal(8)
        b = RngStream(42, (5, 3)).generator(1).standard_normal(8)
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
