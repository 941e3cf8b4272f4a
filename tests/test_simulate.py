import dataclasses

import numpy as np
import pytest

from helpers import block_diag2
from sdoflab import (
    AntennaConfig,
    ChannelRealization,
    EveMode,
    InsufficientData,
    NumericalFailure,
    RateSample,
    RngStream,
    SignalParams,
    allocate_jamming,
    build_precoders,
    channel_use,
    estimate_dof,
    eve_leakage,
    legit_rate,
    sample_channels,
    sum_sdof,
    sweep,
)
from sdoflab import channel, kernels, simulate
from sdoflab.simulate import HALF_LOG2_PER_DB, per_stream_powers


def _build(cfg, seed=0, mode=EveMode.TIME_VARYING):
    """The config, the channel its precoder set sees in channel use 0, and the set."""
    config = AntennaConfig(*cfg)
    rng = RngStream(seed)
    ch = sample_channels(config, rng, mode)
    pre = build_precoders(config, ch, allocate_jamming(config), rng)
    return config, channel_use(config, ch, rng, 0, mode, pre.slots), pre


def _columns(pre):
    """Legitimate and jamming column counts of a precoder set."""
    return pre.v1_l.shape[1] + pre.v2_l.shape[1], pre.v1_j.shape[1] + pre.v2_j.shape[1]


def _at(rate, ch, pre, sig):
    """A rate function at one power level: a one-point grid."""
    (value,) = rate(ch, pre, [sig])
    return value


def _kron2(ch):
    """Test-built slot space of a channel held over two slots."""
    return ChannelRealization(*(np.kron(np.eye(2), m) for m in (ch.h1, ch.h2, ch.g1, ch.g2)))


class TestPerStreamPowers:
    def test_transmit_power_accounting(self):
        # trace of the transmit covariance (before the channel) equals p
        config = AntennaConfig(2, 2, 3, 2)
        rng = RngStream(11)
        ch = sample_channels(config, rng, EveMode.STATIC)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        sig = SignalParams(7.0, alpha=0.25)
        p_legit, p_jam = per_stream_powers(pre.slots, *_columns(pre), sig)
        total = 0.0
        for vl, vj in ((pre.v1_l, pre.v1_j), (pre.v2_l, pre.v2_j)):
            cov = p_legit * (vl @ vl.conj().T) + p_jam * (vj @ vj.conj().T)
            total += float(np.trace(cov).real)
        assert total / pre.slots == pytest.approx(sig.p, rel=1e-9)

    def test_transmit_power_accounting_two_slot(self):
        config = AntennaConfig(2, 2, 3, 1)
        rng = RngStream(19)
        ch = sample_channels(config, rng, EveMode.STATIC)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        assert pre.slots == 2
        sig = SignalParams(3.0, alpha=0.5)
        p_legit, p_jam = per_stream_powers(pre.slots, *_columns(pre), sig)
        total = 0.0
        for vl, vj in ((pre.v1_l, pre.v1_j), (pre.v2_l, pre.v2_j)):
            cov = p_legit * (vl @ vl.conj().T) + p_jam * (vj @ vj.conj().T)
            total += float(np.trace(cov).real)
        assert total / pre.slots == pytest.approx(sig.p, rel=1e-9)


class TestLegitRate:
    def test_zero_power(self):
        _, ch, pre = _build((2, 2, 3, 2))
        assert _at(legit_rate, ch, pre, SignalParams(0.0)) == 0.0

    def test_zero_projector(self):
        _, ch, pre = _build((2, 2, 3, 2))
        dead = dataclasses.replace(pre, u=np.zeros_like(pre.u))
        assert _at(legit_rate, ch, dead, SignalParams(100.0)) == 0.0

    def test_zero_streams(self):
        _, ch, pre = _build((1, 1, 4, 2))  # zero-SDoF regime
        assert _at(legit_rate, ch, pre, SignalParams(1e8)) == 0.0

    def test_rate_increases_with_power(self):
        _, ch, pre = _build((2, 2, 3, 2))
        low = _at(legit_rate, ch, pre, SignalParams.from_db(20.0))
        high = _at(legit_rate, ch, pre, SignalParams.from_db(40.0))
        assert high > low > 0.0

    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (2, 2, 3, 1)])
    def test_matches_slogdet_oracle(self, cfg):
        # E = [U H1 V1l | U H2 V2l] built here from the trial draw with
        # np.kron, not the library slot helper; the (2, 2, 3, 1) set uses
        # the two-slot extension.
        config, ch, pre = _build(cfg, seed=4)
        trial = sample_channels(config, RngStream(4), EveMode.TIME_VARYING)
        if pre.slots == 2:
            trial = _kron2(trial)
        h1, h2 = trial.h1, trial.h2
        e = np.hstack([pre.u @ h1 @ pre.v1_l, pre.u @ h2 @ pre.v2_l])
        sigs = [SignalParams.from_db(p_db, alpha=0.4, sigma2=2.0) for p_db in (20.0, 30.0, 40.0)]
        for sig, value in zip(sigs, legit_rate(ch, pre, sigs)):
            p_legit, _ = per_stream_powers(pre.slots, *_columns(pre), sig)
            gram = np.eye(e.shape[0]) + (p_legit / sig.sigma2) * e @ e.conj().T
            sign, logdet = np.linalg.slogdet(gram)
            assert sign.real > 0
            expected = 0.5 * logdet / np.log(2.0) / pre.slots
            assert value == pytest.approx(expected, rel=1e-10)


class TestEveLeakage:
    def test_zero_power(self):
        _, ch, pre = _build((2, 2, 3, 2))
        assert _at(eve_leakage, ch, pre, SignalParams(0.0)) == 0.0

    def test_no_eavesdropper(self):
        _, ch, pre = _build((2, 2, 3, 0))
        assert _at(eve_leakage, ch, pre, SignalParams(100.0)) == 0.0

    def test_unjammed_leakage_grows(self):
        # strip the jamming: the eavesdropper sees only noise in the
        # denominator and the ratio grows with power
        ch = sample_channels(AntennaConfig(2, 2, 3, 1), RngStream(0), EveMode.TIME_VARYING)
        naked_cfg = AntennaConfig(2, 2, 3, 0)
        rng = RngStream(0)
        naked_ch = sample_channels(naked_cfg, rng, EveMode.STATIC)
        naked = build_precoders(naked_cfg, naked_ch, allocate_jamming(naked_cfg), rng)
        realization = type(ch)(naked_ch.h1, naked_ch.h2, ch.g1, ch.g2)
        low = _at(eve_leakage, realization, naked, SignalParams.from_db(40.0))
        high = _at(eve_leakage, realization, naked, SignalParams.from_db(80.0))
        assert high > low + 5.0

    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (2, 2, 3, 1)])
    def test_default_second_slot_is_the_same_draw(self, cfg):
        # The static model holds the trial's eavesdropper
        # in both slots of every channel use.
        config = AntennaConfig(*cfg)
        rng = RngStream(6)
        trial = sample_channels(config, rng, EveMode.STATIC)
        pre = build_precoders(config, trial, allocate_jamming(config), rng)
        held = trial if pre.slots == 1 else _kron2(trial)
        sig = SignalParams.from_db(50.0)
        for use in (0, 3):
            seen = channel_use(config, trial, rng, use, EveMode.STATIC, pre.slots)
            assert _at(eve_leakage, seen, pre, sig) == _at(eve_leakage, held, pre, sig)

    def test_overflowed_power_is_an_error(self):
        # Per-stream jamming power 0.9 p * 2 slots / 1 column overflows to
        # inf; that must fail, not clamp a NaN leakage to 0.
        config, ch, pre = _build((2, 2, 3, 1))
        with pytest.raises(NumericalFailure):
            _at(eve_leakage, ch, pre, SignalParams(1.7e308, alpha=0.9))

    def test_clamped_at_zero(self):
        _, ch, pre = _build((1, 1, 1, 1))
        assert _at(eve_leakage, ch, pre, SignalParams.from_db(80.0)) >= 0.0


class TestSweep:
    def test_single_point_single_trial(self):
        samples = sweep(AntennaConfig(2, 2, 3, 2), SignalParams(1.0), [50.0], 1, 0, EveMode.STATIC)
        assert len(samples) == 1
        assert samples[0].trial == 0

    def test_sample_count_and_finiteness(self):
        grid = [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        samples = sweep(AntennaConfig(1, 1, 1, 1), SignalParams(1.0), grid, 50, 7, EveMode.STATIC)
        assert len(samples) == 350
        assert all(np.isfinite(s.legit_rate) and np.isfinite(s.eve_leakage) for s in samples)
        assert all(s.legit_rate >= 0 and s.eve_leakage >= 0 for s in samples)

    def test_deterministic(self):
        args = (AntennaConfig(2, 2, 3, 1), SignalParams(1.0), [60.0, 70.0, 80.0], 4, 99, EveMode.STATIC)
        assert sweep(*args) == sweep(*args)

    def test_thread_count_does_not_change_results(self):
        args = (AntennaConfig(2, 2, 3, 2), SignalParams(1.0), [60.0, 70.0, 80.0], 6, 5, EveMode.STATIC)
        sequential = sweep(*args, threads=1)
        threaded = sweep(*args, threads=4)
        assert sequential == threaded

    def test_time_varying_two_slot_draws_once_per_trial(self, monkeypatch):
        # Per grid point only the eavesdropper is redrawn; sample_channels
        # runs once per trial, at the trial address.
        addresses = []
        real = channel.sample_channels

        def counting(config, rng, *args, **kwargs):
            addresses.append(rng.stream_id)
            return real(config, rng, *args, **kwargs)

        monkeypatch.setattr(channel, "sample_channels", counting)
        monkeypatch.setattr(simulate, "sample_channels", counting)
        grid = [60.0, 70.0, 80.0]
        sweep(AntennaConfig(2, 2, 3, 1), SignalParams(1.0), grid, 4, 5, EveMode.TIME_VARYING)
        assert sorted(addresses) == [(t, 0) for t in range(4)]

    @pytest.mark.parametrize("mode", list(EveMode))
    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (2, 2, 3, 1)])
    def test_log_determinants_per_trial_do_not_grow_with_the_grid(self, cfg, mode, monkeypatch):
        # One SVD per block serves the whole grid: the legitimate block and
        # the two leakage blocks, stacked over the grid when the
        # eavesdropper varies per channel use.
        calls = []
        real = kernels.logdet_eye_plus_gram

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "logdet_eye_plus_gram", counting)
        trials, per_trial = 2, []
        for points in (3, 17):
            calls.clear()
            grid = [60.0 + 2.5 * i for i in range(points)]
            sweep(AntennaConfig(*cfg), SignalParams(1.0), grid, trials, 1, mode, threads=1)
            per_trial.append(len(calls) / trials)
        assert per_trial[0] == per_trial[1] <= 3

    def test_time_varying_grid_point_k_sees_slots_at_2k_and_2k_plus_1(self):
        config, grid, seed = AntennaConfig(2, 2, 3, 1), [60.0, 80.0], 5
        samples = sweep(config, SignalParams(1.0), grid, 2, seed, EveMode.TIME_VARYING)
        for s in samples:
            k = grid.index(s.p_db)
            rng = RngStream(seed, (s.trial, 0))
            trial = sample_channels(config, rng, EveMode.TIME_VARYING)
            pre = build_precoders(config, trial, allocate_jamming(config), rng)
            a, b = (
                sample_channels(config, RngStream(seed, (s.trial, address)), EveMode.TIME_VARYING)
                for address in (2 * k, 2 * k + 1)
            )
            held = _kron2(trial)
            seen = ChannelRealization(
                held.h1, held.h2, block_diag2(a.g1, b.g1), block_diag2(a.g2, b.g2)
            )
            sig = SignalParams.from_db(s.p_db)
            assert s.legit_rate == pytest.approx(_at(legit_rate, seen, pre, sig), rel=1e-12)
            assert s.eve_leakage == pytest.approx(
                _at(eve_leakage, seen, pre, sig), rel=1e-12, abs=1e-12
            )

    def test_static_mode_reuses_eavesdropper(self):
        grid = [60.0, 70.0, 80.0]
        static = sweep(AntennaConfig(2, 2, 3, 2), SignalParams(1.0), grid, 2, 3, EveMode.STATIC)
        varying = sweep(AntennaConfig(2, 2, 3, 2), SignalParams(1.0), grid, 2, 3, EveMode.TIME_VARYING)
        assert [s.legit_rate for s in static] == [s.legit_rate for s in varying]
        assert [s.eve_leakage for s in static] != [s.eve_leakage for s in varying]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep(AntennaConfig(1, 1, 1, 1), SignalParams(1.0), [60.0, 60.0], 1, 0, EveMode.STATIC)
        with pytest.raises(ValueError):
            sweep(AntennaConfig(1, 1, 1, 1), SignalParams(1.0), [60.0], 0, 0, EveMode.STATIC)


class TestEstimateDof:
    def test_exact_line(self):
        samples = [
            RateSample(p, 0, 2.0 * (p * HALF_LOG2_PER_DB) + 5.0, 0.0)
            for p in (60.0, 70.0, 80.0, 90.0, 100.0)
        ]
        legit, leak = estimate_dof(samples, (60.0, 100.0))
        assert legit.slope == pytest.approx(2.0, abs=1e-12)
        assert legit.intercept == pytest.approx(5.0, abs=1e-9)
        assert legit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert leak.slope == pytest.approx(0.0, abs=1e-12)

    def test_constant_rate(self):
        samples = [RateSample(p, 0, 3.25, 1.0) for p in (60.0, 70.0, 80.0)]
        legit, leak = estimate_dof(samples, (60.0, 100.0))
        assert legit.slope == 0.0
        assert leak.slope == 0.0

    def test_window_filtering(self):
        samples = [RateSample(p, 0, p, 0.0) for p in (10.0, 60.0, 70.0, 80.0)]
        legit, _ = estimate_dof(samples, (60.0, 100.0))
        assert legit.window == (60.0, 100.0)

    def test_insufficient_points(self):
        samples = [RateSample(60.0, 0, 1.0, 0.0), RateSample(70.0, 0, 2.0, 0.0)]
        with pytest.raises(InsufficientData):
            estimate_dof(samples, (60.0, 100.0))

    def test_end_to_end_slope(self):
        config = AntennaConfig(2, 2, 3, 2)
        samples = sweep(config, SignalParams(1.0), [60.0, 70.0, 80.0, 90.0, 100.0], 10, 42, EveMode.STATIC)
        legit, _ = estimate_dof(samples, (60.0, 100.0))
        assert abs(legit.slope - sum_sdof(config).value) <= 0.15

    def test_slope_holds_far_above_100_db(self):
        # Rates stay exact where I + E E^H is numerically E E^H.
        config = AntennaConfig(2, 2, 3, 2)
        grid = [140.0, 150.0, 160.0, 170.0]
        samples = sweep(config, SignalParams(1.0), grid, 20, 0, EveMode.TIME_VARYING)
        legit, _ = estimate_dof(samples, (140.0, 170.0))
        assert abs(legit.slope - sum_sdof(config).value) <= 1e-3


class TestSecrecyPositivity:
    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (2, 2, 3, 1), (5, 1, 2, 5), (1, 1, 1, 1)])
    def test_mean_secrecy_margin_positive_at_high_power(self, cfg):
        config = AntennaConfig(*cfg)
        assert sum_sdof(config).value > 0
        samples = sweep(config, SignalParams(1.0), [60.0, 80.0, 100.0], 10, 13, EveMode.STATIC)
        by_power = {}
        for s in samples:
            by_power.setdefault(s.p_db, []).append(s.legit_rate - s.eve_leakage)
        for p_db, margins in by_power.items():
            assert np.mean(margins) > 0.0, (cfg, p_db)


class TestThreadEnvironment:
    def test_env_cap_does_not_change_results(self, monkeypatch):
        args = (AntennaConfig(2, 2, 3, 2), SignalParams(1.0), [60.0, 70.0, 80.0], 5, 21, EveMode.STATIC)
        monkeypatch.delenv("SDOFLAB_THREADS", raising=False)
        baseline = sweep(*args)
        monkeypatch.setenv("SDOFLAB_THREADS", "3")
        assert sweep(*args) == baseline

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("SDOFLAB_THREADS", "0")
        with pytest.raises(ValueError):
            sweep(AntennaConfig(1, 1, 1, 1), SignalParams(1.0), [60.0], 1, 0, EveMode.STATIC)
