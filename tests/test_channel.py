import numpy as np
import pytest

from helpers import block_diag2, crandn, elimination_rank
from sdoflab import (
    AntennaConfig,
    EveMode,
    RngStream,
    SignalParams,
    allocate_jamming,
    build_precoders,
    channel_use,
    sample_channels,
)
from sdoflab.channel import per_stream_powers, slot_extend


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
        ch = sample_channels(config, RngStream(1))
        assert ch.h1.shape == (3, 2)
        assert ch.h2.shape == (3, 2)
        assert ch.g1.shape == (2, 2)
        assert elimination_rank(ch.h1) == 2

    def test_no_eavesdropper_gives_empty_g(self):
        ch = sample_channels(AntennaConfig(2, 1, 2, 0), RngStream(1))
        assert ch.g1.shape == (0, 2)

    def test_determinism(self):
        config = AntennaConfig(3, 2, 4, 1)
        first = sample_channels(config, RngStream(9, (2, 1)))
        second = sample_channels(config, RngStream(9, (2, 1)))
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
        ch = sample_channels(config, RngStream(123))
        entries = np.concatenate([ch.h1.ravel(), ch.h2.ravel()])
        assert entries.size >= 99_000
        assert np.var(entries) == pytest.approx(1.0, abs=0.02)
        assert abs(entries.mean()) < 0.02

    def test_configurable_mean_and_variance(self):
        config = AntennaConfig(150, 150, 120, 0)
        ch = sample_channels(config, RngStream(5), mean=2.0, variance=0.25)
        entries = np.concatenate([ch.h1.ravel(), ch.h2.ravel()])
        assert entries.mean() == pytest.approx(2.0, abs=0.02)
        assert np.var(entries) == pytest.approx(0.25, abs=0.01)


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


class TestPerStreamPowers:
    def test_transmit_power_accounting(self):
        # trace of the transmit covariance (before the channel) equals p
        config = AntennaConfig(2, 2, 3, 2)
        rng = RngStream(11)
        ch = sample_channels(config, rng)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        sig = SignalParams(7.0, alpha=0.25)
        p_legit, p_jam = per_stream_powers(pre, sig)
        total = 0.0
        for vl, vj in ((pre.v1_l, pre.v1_j), (pre.v2_l, pre.v2_j)):
            cov = p_legit * (vl @ vl.conj().T) + p_jam * (vj @ vj.conj().T)
            total += float(np.trace(cov).real)
        assert total / pre.slots == pytest.approx(sig.p, rel=1e-9)

    def test_transmit_power_accounting_two_slot(self):
        config = AntennaConfig(2, 2, 3, 1)
        rng = RngStream(19)
        ch = sample_channels(config, rng)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        assert pre.slots == 2
        sig = SignalParams(3.0, alpha=0.5)
        p_legit, p_jam = per_stream_powers(pre, sig)
        total = 0.0
        for vl, vj in ((pre.v1_l, pre.v1_j), (pre.v2_l, pre.v2_j)):
            cov = p_legit * (vl @ vl.conj().T) + p_jam * (vj @ vj.conj().T)
            total += float(np.trace(cov).real)
        assert total / pre.slots == pytest.approx(sig.p, rel=1e-9)


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
