import dataclasses
import itertools
import os
import re
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from helpers import bound_stacks, count_generators, member, no_children, real2, seed_sequence_eavesdropper
from sdoflab import (
    AntennaConfig,
    ChannelRealization,
    DimensionMismatch,
    EveMode,
    InsufficientData,
    InvalidMatrix,
    NumericalFailure,
    RngStream,
    SignalParams,
    SweepResult,
    allocate_jamming,
    build_precoders,
    estimate_dof,
    eve_leakage,
    leakage_rank,
    legit_rate,
    sample_channels,
    sum_sdof,
    sweep,
)
from sdoflab import channel, cli, kernels, precoding, simulate, verify
from sdoflab.channel import TrialNormals, channel_uses
from sdoflab.precoding import BuildReport, PrecoderSet
from sdoflab.simulate import HALF_LOG2_PER_DB


def _result_bytes(result):
    """The shapes and bytes of a sweep result's grid and rate arrays."""
    arrays = (result.grid, result.legit, result.leakage)
    return repr([a.shape for a in arrays]).encode() + b"".join(a.tobytes() for a in arrays)


def _trial(config, seed, mode=EveMode.TIME_VARYING):
    """One trial as a stack of one: its streams, its draw and its precoder set."""
    rngs = [RngStream(seed)]
    ch = sample_channels(config, rngs, mode)
    return rngs, ch, build_precoders(ch, allocate_jamming(config), rngs)


def _build(cfg, seed=0, mode=EveMode.TIME_VARYING):
    """The config, the channels one trial's set sees in channel use 0, and the set (stacks of one)."""
    config = AntennaConfig(*cfg)
    rngs, ch, pre = _trial(config, seed, mode)
    return config, channel_uses(config, ch, rngs, [0], mode), pre


def _columns(pre):
    """Legitimate and jamming real column counts of a precoder set."""
    return pre.v1_l.shape[-1] + pre.v2_l.shape[-1], pre.v1_j.shape[-1] + pre.v2_j.shape[-1]


def _powers(pre, sig):
    """Per-stream legitimate and jamming powers of a precoder set over ``sig``'s grid: its SNRs at noise 1/2."""
    return 0.5 * sig.stream_snrs(*_columns(pre))


def _at(rate, ch, pre, sig):
    """A rate function on one trial at one power level: a one-point grid."""
    ((value,),) = rate(ch, pre, sig)
    return value


def _one_use(ch):
    """One trial's matrices as a stack of one trial and one channel use."""
    return ChannelRealization(ch.h1[None], ch.h2[None], ch.g1[None, None], ch.g2[None, None])


def _complex_set(gen, config):
    """Random complex isometries for both transmitters, a complex projector and their real forms.

    Returns ((v1_l, v1_j, v2_l, v2_j, u) complex, the ``PrecoderSet`` of
    their real forms as a stack of one).  Legitimate and jamming columns
    are two per transmitter.
    """

    def isometry(rows, cols):
        q, _ = np.linalg.qr(gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols)))
        return q

    w1, w2 = isometry(config.m1, 4), isometry(config.m2, 4)
    q = isometry(config.n, 1)
    complex_set = (w1[:, :2], w1[:, 2:], w2[:, :2], w2[:, 2:], np.eye(config.n) - q @ q.conj().T)
    reals = [real2(m)[None] for m in complex_set]
    zeros = np.zeros(1)
    return complex_set, PrecoderSet(*reals, BuildReport(zeros, zeros))


def _complex_half_logdet(e, power):
    """0.5 * log2 det(I + power E E^H) of a complex E, in 50-digit arithmetic on its float values."""
    with mpmath.workdps(50):
        m = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in e])
        gram = mpmath.eye(e.shape[0]) + mpmath.mpf(power) * (m * m.transpose_conj())
        return float(mpmath.log(mpmath.re(mpmath.det(gram)), 2) / 2)


class TestPerStreamPowers:
    # The real transmit covariances p V V^T have trace p per channel use.
    def test_transmit_power_accounting(self):
        # trace of the transmit covariance (before the channel) equals p
        _, _, pre = _trial(AntennaConfig(2, 2, 3, 2), 11, EveMode.STATIC)
        pre = member(pre, 0)
        sig = SignalParams(7.0, alpha=0.25)
        p_legit, p_jam = _powers(pre, sig)
        total = 0.0
        for vl, vj in ((pre.v1_l, pre.v1_j), (pre.v2_l, pre.v2_j)):
            cov = p_legit * (vl @ vl.T) + p_jam * (vj @ vj.T)
            total += float(np.trace(cov))
        assert total == pytest.approx(sig.p, rel=1e-9)

    def test_transmit_power_accounting_half_integer_allocation(self):
        # The half-integer allocation of (2, 2, 3, 1): one real jamming
        # stream per transmitter.
        _, _, pre = _trial(AntennaConfig(2, 2, 3, 1), 19, EveMode.STATIC)
        pre = member(pre, 0)
        assert _columns(pre) == (5, 2)
        sig = SignalParams(3.0, alpha=0.5)
        p_legit, p_jam = _powers(pre, sig)
        total = 0.0
        for vl, vj in ((pre.v1_l, pre.v1_j), (pre.v2_l, pre.v2_j)):
            cov = p_legit * (vl @ vl.T) + p_jam * (vj @ vj.T)
            total += float(np.trace(cov))
        assert total == pytest.approx(sig.p, rel=1e-9)

    def test_stream_snrs_split_each_budget_over_its_streams(self):
        sig = SignalParams.from_db([0.0, 3080.0], alpha=0.1)
        with np.errstate(over="raise"):
            snrs = sig.stream_snrs(1, 0)
        assert snrs.shape == (2, 2)
        assert snrs[0, 0] == (1.0 - 0.1) * 1.0 / 1 / 0.5
        assert snrs[0, 1] == np.inf  # 0.9 p / (1/2) is past the float range
        assert (snrs[1] == 0.0).all()  # no jamming streams
        assert SignalParams(2.0).stream_snrs(0, 4).tolist() == [[0.0], [0.5]]


class TestRateUnit:
    """On real forms of complex precoders the rates are half the complex mutual information.

    The oracle works on the complex matrices in mpmath: 0.5 * log2 det(I +
    p E E^H) with p the power of one complex stream, which is two real
    streams' worth, over unit complex noise.
    """

    config = AntennaConfig(3, 2, 3, 2)
    sig = SignalParams.from_db((0.0, 20.0, 60.0), alpha=0.3)

    def draw(self, seed):
        gen = np.random.default_rng(seed)
        (v1_l, v1_j, v2_l, v2_j, u), pre = _complex_set(gen, self.config)
        ch = sample_channels(self.config, [RngStream(seed)], EveMode.STATIC)
        return (v1_l, v1_j, v2_l, v2_j, u), pre, member(ch, 0), ch

    @pytest.mark.parametrize("seed", range(3))
    def test_legit_rate(self, seed):
        (v1_l, _, v2_l, _, u), pre, trial, ch = self.draw(seed)
        e = np.hstack([u @ trial.h1 @ v1_l, u @ trial.h2 @ v2_l])
        sig = self.sig
        for p_k, value in zip(sig.p, legit_rate(ch, pre, sig)[0]):
            p = (1 - sig.alpha) * p_k / e.shape[1]
            assert abs(value - _complex_half_logdet(e, p)) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_eve_leakage(self, seed):
        (v1_l, v1_j, v2_l, v2_j, _), pre, trial, ch = self.draw(seed)
        seen = channel_uses(self.config, ch, [RngStream(seed)], [0], EveMode.STATIC)
        s = np.hstack([trial.g1 @ v1_l, trial.g2 @ v2_l])
        j = np.hstack([trial.g1 @ v1_j, trial.g2 @ v2_j])
        sig = self.sig
        for p_k, value in zip(sig.p, eve_leakage(seen, pre, sig)[0]):
            p_s = (1 - sig.alpha) * p_k / s.shape[1]
            p_j = sig.alpha * p_k / j.shape[1]
            expected = max(0.0, _complex_half_logdet(s, p_s) - _complex_half_logdet(j, p_j))
            assert abs(value - expected) <= 1e-12

    @pytest.mark.parametrize("mode", list(EveMode))
    @pytest.mark.parametrize("rate", [legit_rate, eve_leakage])
    @pytest.mark.parametrize("seed", range(3))
    def test_each_grid_column_is_its_one_point_call(self, seed, rate, mode):
        # A time-varying grid point k sees channel use k.
        _, pre, _, _ = self.draw(seed)
        rngs = [RngStream(seed)]
        ch = sample_channels(self.config, rngs, mode)
        grid = rate(channel_uses(self.config, ch, rngs, range(3), mode), pre, self.sig)
        assert grid.shape == (1, 3)
        for k, p_k in enumerate(self.sig.p):
            seen = channel_uses(self.config, ch, rngs, [k], mode)
            one = rate(seen, pre, dataclasses.replace(self.sig, p=p_k))
            assert one.shape == (1, 1) and one.tobytes() == grid[:, k].tobytes()


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
        # np.block real forms, not the library's; the (2, 2, 3, 1) set has
        # a half-integer allocation.  Real noise has variance 1/2.
        config, ch, stack = _build(cfg, seed=4)
        pre = member(stack, 0)
        trial = member(sample_channels(config, [RngStream(4)], EveMode.TIME_VARYING), 0)
        h1, h2 = real2(trial.h1), real2(trial.h2)
        e = np.hstack([pre.u @ h1 @ pre.v1_l, pre.u @ h2 @ pre.v2_l])
        sig = SignalParams.from_db((20.0, 30.0, 40.0), alpha=0.4)
        p_legit, _ = _powers(pre, sig)
        for p_k, value in zip(p_legit, legit_rate(ch, stack, sig)[0]):
            gram = np.eye(e.shape[0]) + (2.0 * p_k) * e @ e.T
            sign, logdet = np.linalg.slogdet(gram)
            assert sign > 0
            expected = 0.25 * logdet / np.log(2.0)
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
        ch = sample_channels(AntennaConfig(2, 2, 3, 1), [RngStream(0)], EveMode.TIME_VARYING)
        _, naked_ch, naked = _trial(AntennaConfig(2, 2, 3, 0), 0, EveMode.STATIC)
        realization = type(ch)(naked_ch.h1, naked_ch.h2, ch.g1[:, None], ch.g2[:, None])
        low = _at(eve_leakage, realization, naked, SignalParams.from_db(40.0))
        high = _at(eve_leakage, realization, naked, SignalParams.from_db(80.0))
        assert high > low + 5.0

    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (2, 2, 3, 1)])
    def test_static_eavesdropper_is_the_same_in_every_use(self, cfg):
        # The static model holds the trial's eavesdropper in every channel
        # use.
        config = AntennaConfig(*cfg)
        rngs, trial, pre = _trial(config, 6, EveMode.STATIC)
        held = _one_use(member(trial, 0))
        sig = SignalParams.from_db(50.0)
        for use in (0, 3):
            seen = channel_uses(config, trial, rngs, [use], EveMode.STATIC)
            assert _at(eve_leakage, seen, pre, sig) == _at(eve_leakage, held, pre, sig)

    def test_overflowed_power_is_an_error(self):
        # At unit noise a jamming SNR is at most alpha p, as every allocation
        # sends at least 2 real jamming streams, but (1, 1, 1, 1) sends one
        # legitimate real stream: its SNR 0.9 p / (1/2) overflows to inf at
        # alpha = 0.1.  That must fail, not clamp a NaN leakage to 0.
        config, ch, pre = _build((1, 1, 1, 1))
        with pytest.raises(NumericalFailure):
            _at(eve_leakage, ch, pre, SignalParams.from_db(3080.0, alpha=0.1))

    def test_clamped_at_zero(self):
        _, ch, pre = _build((1, 1, 1, 1))
        assert _at(eve_leakage, ch, pre, SignalParams.from_db(80.0)) >= 0.0


class TestPairing:
    """The rate and rank functions refuse channels that are not their precoder set's trials and uses."""

    config = AntennaConfig(2, 2, 3, 1)
    mode = EveMode.TIME_VARYING

    def draw(self, trials):
        rngs = [RngStream(3, t) for t in range(trials)]
        return rngs, sample_channels(self.config, rngs, self.mode)

    def call(self, function, ch, pre, points):
        if function is leakage_rank:
            return function(ch, pre)
        return function(ch, pre, SignalParams.from_db(60.0 + 10.0 * np.arange(points)))

    @pytest.mark.parametrize("points", [2, 3])
    @pytest.mark.parametrize("function", [eve_leakage, leakage_rank])
    def test_a_draw_has_no_use_axis(self, function, points):
        # Broadcast, the draw's (3, n_e, m) eavesdropper would pair trial
        # i's eavesdropper with trial j's set.
        rngs, ch = self.draw(3)
        pre = build_precoders(ch, allocate_jamming(self.config), rngs)
        with pytest.raises(DimensionMismatch, match="channel_uses"):
            self.call(function, ch, pre, points)
        seen = channel_uses(self.config, ch, rngs, range(points), self.mode)
        assert self.call(function, seen, pre, points).shape == (3, points)

    @pytest.mark.parametrize("function", [legit_rate, eve_leakage, leakage_rank])
    def test_one_trial_does_not_pair_with_three(self, function):
        rngs, ch = self.draw(3)
        pre = build_precoders(ch, allocate_jamming(self.config), rngs)
        one_rngs, one = self.draw(1)
        seen = channel_uses(self.config, one, one_rngs, range(3), self.mode)
        with pytest.raises(DimensionMismatch, match="channel_uses"):
            self.call(function, seen, pre, 3)

    @pytest.mark.parametrize("points", [1, 2, 4])
    def test_uses_that_are_not_the_grid_do_not_pair(self, points):
        # An eavesdropper over 3 uses pairs with a 3-point grid only.
        rngs, ch = self.draw(2)
        pre = build_precoders(ch, allocate_jamming(self.config), rngs)
        seen = channel_uses(self.config, ch, rngs, range(3), self.mode)
        with pytest.raises(DimensionMismatch, match="3 channel uses"):
            self.call(eve_leakage, seen, pre, points)
        assert self.call(eve_leakage, seen, pre, 3).shape == (2, 3)

    def test_other_receive_antennas_do_not_pair(self):
        # The projector u of a (2, 2, 3, 1) set is 6 x 6; h1 of n = 4 has 8 real rows.
        rngs, ch = self.draw(2)
        pre = build_precoders(ch, allocate_jamming(self.config), rngs)
        theirs = sample_channels(AntennaConfig(2, 2, 4, 1), rngs, self.mode)
        with pytest.raises(DimensionMismatch, match="receive row"):
            legit_rate(theirs, pre, SignalParams(1.0))

    @pytest.mark.parametrize("cfg", [(3, 2, 3, 1), (2, 3, 3, 1)])
    @pytest.mark.parametrize("function", [legit_rate, eve_leakage, leakage_rank])
    def test_other_transmit_antennas_do_not_pair(self, function, cfg):
        rngs, ch = self.draw(2)
        pre = build_precoders(ch, allocate_jamming(self.config), rngs)
        other = AntennaConfig(*cfg)
        theirs = channel_uses(other, sample_channels(other, rngs, self.mode), rngs, range(2), self.mode)
        with pytest.raises(DimensionMismatch, match="antenna column"):
            self.call(function, theirs, pre, 2)

    @pytest.mark.parametrize("function", [eve_leakage, leakage_rank])
    def test_an_eavesdropper_of_other_antennas_pairs(self, function):
        # The set's n_e bounds the eavesdropper it was designed for; one
        # with more antennas is still a valid input.
        rngs, ch = self.draw(2)
        pre = build_precoders(ch, allocate_jamming(self.config), rngs)
        other = AntennaConfig(2, 2, 3, 2)
        seen = channel_uses(other, sample_channels(other, rngs, self.mode), rngs, range(3), self.mode)
        assert self.call(function, seen, pre, 3).shape == (2, 3)


class TestSweep:
    def test_single_point_single_trial(self):
        result = sweep(AntennaConfig(2, 2, 3, 2), SignalParams(1.0), [50.0], 1, 0, EveMode.STATIC)
        assert result.grid.tolist() == [50.0]
        assert result.legit.shape == result.leakage.shape == (1, 1)

    def test_sample_count_and_finiteness(self):
        grid = [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        result = sweep(AntennaConfig(1, 1, 1, 1), SignalParams(1.0), grid, 50, 7, EveMode.STATIC)
        assert result.legit.shape == result.leakage.shape == (50, 7)
        assert np.isfinite(result.legit).all() and np.isfinite(result.leakage).all()
        assert (result.legit >= 0).all() and (result.leakage >= 0).all()

    def test_deterministic(self):
        args = (AntennaConfig(2, 2, 3, 1), SignalParams(1.0), [60.0, 70.0, 80.0], 4, 99, EveMode.STATIC)
        assert _result_bytes(sweep(*args)) == _result_bytes(sweep(*args))

    @pytest.mark.parametrize("mode", list(EveMode))
    def test_a_sweep_never_audits_its_sets(self, mode, monkeypatch):
        # The set audit and its rank decisions are for verify and design;
        # a sweep reads the precoders alone.
        def refuse(*args):
            raise AssertionError("a sweep audited its precoder set")

        monkeypatch.setattr(precoding, "audit_set", refuse)
        monkeypatch.setattr(precoding, "ranks", refuse)
        result = sweep(AntennaConfig(5, 1, 2, 5), SignalParams(1.0), [60.0, 80.0], 3, 4, mode)
        assert np.isfinite(result.legit).all() and np.isfinite(result.leakage).all()

    def test_thread_count_does_not_change_results(self, monkeypatch, uncapped_workers, forks):
        args = (AntennaConfig(2, 2, 3, 2), SignalParams(1.0), [60.0, 70.0, 80.0], 6, 5, EveMode.STATIC)
        sequential = sweep(*args, threads=1)
        bound_stacks(monkeypatch, args[0], 2, EveMode.STATIC)  # three stacks, three workers
        forked = sweep(*args, threads=4)
        assert _result_bytes(sequential) == _result_bytes(forked)
        assert len(forks) == 2

    def test_time_varying_sweep_samples_channels_once_per_trial(self, monkeypatch):
        # Per grid point only the eavesdropper is redrawn; sample_channels
        # runs once per trial, at the trial address.
        addresses = []
        real = channel.sample_channels

        def counting(config, rngs, *args, **kwargs):
            addresses.extend(r.trial for r in rngs)
            return real(config, rngs, *args, **kwargs)

        monkeypatch.setattr(channel, "sample_channels", counting)
        monkeypatch.setattr(simulate, "sample_channels", counting)
        grid = [60.0, 70.0, 80.0]
        sweep(AntennaConfig(2, 2, 3, 1), SignalParams(1.0), grid, 4, 5, EveMode.TIME_VARYING)
        assert sorted(addresses) == list(range(4))

    @pytest.mark.parametrize("mode", list(EveMode))
    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (2, 2, 3, 1)])
    def test_log_determinants_per_trial_do_not_grow_with_the_grid(self, cfg, mode, monkeypatch):
        # One stacked SVD per block serves every trial of the chunk and the
        # whole grid: the legitimate block and the two leakage blocks,
        # stacked over the grid when the eavesdropper varies per channel use.
        calls = []
        real = kernels.logdet_eye_plus_gram

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "logdet_eye_plus_gram", counting)
        for trials in (1, 2, 7):
            for points in (3, 17):
                calls.clear()
                grid = [60.0 + 2.5 * i for i in range(points)]
                sweep(AntennaConfig(*cfg), SignalParams(1.0), grid, trials, 1, mode, threads=1)
                assert len(calls) == 3, (trials, points)

    def test_time_varying_grid_point_k_sees_the_draw_at_2k(self):
        config, grid, seed = AntennaConfig(2, 2, 3, 1), [60.0, 80.0], 5
        result = sweep(config, SignalParams(1.0), grid, 2, seed, EveMode.TIME_VARYING)
        for t, k in itertools.product(range(2), range(len(grid))):
            rngs = [RngStream(seed, t)]
            trial = sample_channels(config, rngs, EveMode.TIME_VARYING)
            pre = build_precoders(trial, allocate_jamming(config), rngs)
            held = member(trial, 0)
            g1, g2 = seed_sequence_eavesdropper(config, seed, (1, t, 2 * k))
            seen = _one_use(ChannelRealization(held.h1, held.h2, g1, g2))
            sig = SignalParams.from_db(grid[k])
            assert result.legit[t, k] == pytest.approx(_at(legit_rate, seen, pre, sig), rel=1e-12)
            assert result.leakage[t, k] == pytest.approx(
                _at(eve_leakage, seen, pre, sig), rel=1e-12, abs=1e-12
            )

    def test_static_mode_reuses_eavesdropper(self):
        grid = [60.0, 70.0, 80.0]
        static = sweep(AntennaConfig(2, 2, 3, 2), SignalParams(1.0), grid, 2, 3, EveMode.STATIC)
        varying = sweep(AntennaConfig(2, 2, 3, 2), SignalParams(1.0), grid, 2, 3, EveMode.TIME_VARYING)
        assert static.legit.tobytes() == varying.legit.tobytes()
        assert static.leakage.tobytes() != varying.leakage.tobytes()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep(AntennaConfig(1, 1, 1, 1), SignalParams(1.0), [60.0, 60.0], 1, 0, EveMode.STATIC)
        with pytest.raises(ValueError):
            sweep(AntennaConfig(1, 1, 1, 1), SignalParams(1.0), [60.0], 0, 0, EveMode.STATIC)


@pytest.mark.parametrize(
    "run, counts",
    [
        ("sweep", {"trials": 2.5}),
        ("sweep", {"trials": True}),
        ("sweep", {"threads": 1.5}),
        ("sweep", {"threads": False}),
        ("sweep", {"threads": 0}),
        ("verify", {"seeds": 1.5}),
        ("verify", {"seeds": True}),
        ("verify", {"max_antennas": 2.5}),
        ("sweep", {"master_seed": 2.5}),
        ("sweep", {"master_seed": True}),
        ("sweep", {"master_seed": -1}),
    ],
)
def test_a_count_that_is_not_an_integer_is_refused_before_any_draw(
    run, counts, monkeypatch, uncapped_workers
):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the counts were checked")

    monkeypatch.setattr(simulate, "sample_channels", refuse)
    monkeypatch.setattr(verify, "regime_table", refuse)
    name = next(iter(counts))
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least"):
        if run == "sweep":
            sweep(AntennaConfig(2, 2, 3, 1), SignalParams(1.0), [60.0], mode=EveMode.STATIC,
                  **{"trials": 4, "threads": 2, "master_seed": 0, **counts})
        else:
            verify.run_verification(**{"max_antennas": 2, "seeds": 1, **counts})


class TestStackedSweep:
    """A trial's rates do not depend on the chunk its precoders were built in."""

    grid = [60.0, 80.0, 100.0]
    dense_grid = [60.0 + 0.04 * i for i in range(1000)]

    def run(self, cfg, trials, mode, threads=1, grid=None):
        grid = self.grid if grid is None else grid
        return sweep(AntennaConfig(*cfg), SignalParams(1.0), grid, trials, 11, mode, threads=threads)

    @pytest.fixture
    def stacks(self, monkeypatch):
        """The trial indices of each stacked build ``sweep`` makes in this process, in call order."""
        stacks = []
        real = simulate.build_precoders

        def counting(ch, alloc, rngs):
            stacks.append([rng.trial for rng in rngs])
            return real(ch, alloc, rngs)

        monkeypatch.setattr(simulate, "build_precoders", counting)
        return stacks

    @pytest.mark.parametrize("mode", list(EveMode))
    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (2, 2, 3, 1), (5, 1, 2, 5)])
    def test_threads_chunks_and_trial_count_do_not_change_samples(
        self, cfg, mode, monkeypatch, uncapped_workers
    ):
        seven = self.run(cfg, 7, mode)
        for cap in (2, 1):  # chunks of two trials, then stacks of one
            bound_stacks(monkeypatch, AntennaConfig(*cfg), cap, mode)
            for threads in (1, 2, 3):
                assert _result_bytes(self.run(cfg, 7, mode, threads)) == _result_bytes(seven)
        first_three = SweepResult(seven.grid, seven.legit[:3], seven.leakage[:3])
        assert _result_bytes(self.run(cfg, 3, mode)) == _result_bytes(first_three)

    @pytest.mark.parametrize(
        "trials, threads, cap, builds",
        [(7, 1, 64, 1), (7, 2, 64, 1), (7, 3, 64, 1), (7, 1, 3, 3), (2, 4, 64, 1), (7, 2, 3, 4)],
    )
    def test_one_stacked_build_per_chunk(
        self, trials, threads, cap, builds, stacks, monkeypatch, uncapped_workers, in_process
    ):
        # (7, 2, 64, 1): trials that fit one stack are built in one, whatever
        # the workers.  (7, 2, 3, 4): stacks of at most 3 trials, two per
        # worker, each worker's run here in turn.
        bound_stacks(monkeypatch, AntennaConfig(2, 2, 3, 2), cap, EveMode.STATIC)
        self.run((2, 2, 3, 2), trials, EveMode.STATIC, threads)
        assert len(stacks) == builds
        assert sorted(t for stack in stacks for t in stack) == list(range(trials))
        assert all(stack == list(range(stack[0], stack[0] + len(stack))) for stack in stacks)
        assert max(map(len, stacks)) <= cap

    @pytest.mark.parametrize("threads", [2, 3])
    def test_a_sweep_that_fits_one_stack_starts_no_thread(
        self, threads, stacks, monkeypatch, uncapped_workers
    ):
        # Nor any process: a second stack would pay its own build and seed batches.
        def refuse(*args):
            raise AssertionError("a thread was started or a process forked")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        self.run((2, 2, 3, 2), 7, EveMode.STATIC, threads)
        assert stacks == [list(range(7))]

    def test_a_dense_time_varying_grid_builds_three_trials_in_one_stack(self, stacks):
        # A stack holds its build; the 1,000 channel uses come in blocks.
        self.run((2, 2, 3, 2), 3, EveMode.TIME_VARYING, grid=self.dense_grid)
        assert stacks == [[0, 1, 2]]

    def test_a_time_varying_sweep_builds_the_same_stacks_at_17_and_201_points(self, stacks):
        self.run((4, 4, 6, 3), 30, EveMode.TIME_VARYING, grid=[60.0 + 0.2 * i for i in range(17)])
        at_17 = list(stacks)
        stacks.clear()
        self.run((4, 4, 6, 3), 30, EveMode.TIME_VARYING, grid=[60.0 + 0.2 * i for i in range(201)])
        assert stacks == at_17 == [list(range(30))]

    @pytest.fixture
    def blocks(self, monkeypatch):
        """The channel uses of each leakage block ``sweep`` evaluates, in call order."""
        blocks = []
        real = simulate.channel_uses

        def recording(config, draws, rngs, uses, mode):
            blocks.append(uses)
            return real(config, draws, rngs, uses, mode)

        monkeypatch.setattr(simulate, "channel_uses", recording)
        return blocks

    def bound_blocks(self, monkeypatch, cfg, uses, mode):
        """Bound every leakage block of a sweep of ``cfg`` at ``uses`` channel uses, in stacks of one."""
        config = AntennaConfig(*cfg)
        base, per_use = simulate._stack_bytes(config, allocate_jamming(config), mode).leakage
        bound = simulate._STACK_FIXED_BYTES + base + uses * (per_use + simulate._SIGNAL_BYTES)
        monkeypatch.setattr(simulate, "STACK_BYTES_MAX", bound)

    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (5, 1, 2, 5), (2, 2, 3, 0)])
    def test_blocks_of_channel_uses_do_not_change_samples(self, cfg, blocks, monkeypatch):
        mode, grid = EveMode.TIME_VARYING, [60.0 + 5.0 * i for i in range(7)]
        whole = self.run(cfg, 3, mode, grid=grid)
        assert blocks == [range(7)]  # one stack, one block
        one_use = [range(k, k + 1) for k in range(7)]
        three_uses = [range(0, 2), range(2, 4), range(4, 7)]  # an even split
        for uses, per_stack in ((1, one_use), (3, three_uses)):
            blocks.clear()
            self.bound_blocks(monkeypatch, cfg, uses, mode)
            assert _result_bytes(self.run(cfg, 3, mode, grid=grid)) == _result_bytes(whole)
            assert blocks == per_stack * 3

    def test_a_sweep_converts_its_grid_from_db_once(self, blocks, monkeypatch):
        # Every block's SignalParams slices the powers converted before the draws.
        conversions = []
        real = SignalParams.from_db

        def counting(cls, p_db, alpha=0.5):
            conversions.append(np.asarray(p_db).tolist())
            return real(p_db, alpha)

        monkeypatch.setattr(SignalParams, "from_db", classmethod(counting))
        grid = [60.0 + 5.0 * i for i in range(7)]
        self.bound_blocks(monkeypatch, (2, 2, 3, 1), 2, EveMode.TIME_VARYING)
        self.run((2, 2, 3, 1), 2, EveMode.TIME_VARYING, grid=grid)
        assert len(blocks) > 1
        assert conversions == [grid]

    def test_workers_write_only_their_own_blocks(self, monkeypatch, uncapped_workers, forks):
        # Twelve one-trial stacks of 2-use blocks, four on each of three
        # workers: a lost or misplaced block or row would change the bytes.
        cfg, mode, grid = (2, 2, 3, 1), EveMode.TIME_VARYING, [60.0 + 5.0 * i for i in range(7)]
        sequential = self.run(cfg, 12, mode, grid=grid)
        self.bound_blocks(monkeypatch, cfg, 2, mode)
        forked = self.run(cfg, 12, mode, threads=3, grid=grid)
        assert _result_bytes(forked) == _result_bytes(sequential)
        assert len(forks) == 2

    @pytest.mark.parametrize("points, trials", [(17, 16), (201, 8), (1000, 4)])
    @pytest.mark.parametrize("cfg", [(3, 3, 4, 2), (5, 1, 2, 5), (2, 2, 3, 1), (4, 4, 6, 3)])
    def test_a_time_varying_sweep_works_within_the_stack_bound(self, cfg, points, trials):
        # The tracemalloc peak above what is still held once the sweep's
        # result is dropped (the peak includes the returned rate arrays),
        # after a warm-up sweep has filled the caches that outlive a call.
        grid = [60.0 + 40.0 * i / (points - 1) for i in range(points)]
        self.run(cfg, 2, EveMode.TIME_VARYING, grid=grid[:3])
        tracemalloc.start()
        try:
            self.run(cfg, trials, EveMode.TIME_VARYING, grid=grid)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held <= simulate.STACK_BYTES_MAX == 800_000

    def test_a_short_static_grid_builds_in_stacks_of_more_than_16_trials(self, stacks):
        self.run((2, 2, 3, 2), 40, EveMode.STATIC)
        assert stacks == [list(range(40))]

    def test_working_memory_does_not_grow_with_trials_on_a_dense_time_varying_grid(self):
        # The tracemalloc peak above what the sweep returns: the returned
        # rate arrays themselves grow with the trial count however the
        # trials are stacked.
        def working_bytes(trials):
            tracemalloc.start()
            try:
                result = self.run((1, 1, 1, 1), trials, EveMode.TIME_VARYING, grid=self.dense_grid)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.legit.shape == (trials, len(self.dense_grid))
            return peak - held

        assert working_bytes(16) <= 2 * working_bytes(1)

    def test_a_result_holds_about_two_floats_per_trial_and_point(self):
        # The returned rates are two float64 arrays, 16 bytes per (trial,
        # point); the bound leaves room for the grid and small objects.
        trials = 16
        tracemalloc.start()
        try:
            result = self.run((1, 1, 1, 1), trials, EveMode.TIME_VARYING, grid=self.dense_grid)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.leakage.shape == (trials, len(self.dense_grid))
        assert held <= 32 * trials * len(self.dense_grid)


class TestChunkDraws:
    def test_time_varying_chunks_construct_no_seed_sequence_per_eavesdropper_draw(self, monkeypatch, capsys):
        # Every batch of addresses, one address or many, is hashed: neither
        # a 16-trial chunk, its per-use draws and its jamming streams, nor a
        # 1-trial draw, a 1-seed check or a ``design`` run builds a
        # SeedSequence.
        spawn_keys = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            spawn_keys.append(kwargs.get("spawn_key", ()))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        config = AntennaConfig(2, 2, 3, 1)
        sweep(config, SignalParams(1.0), [60.0, 70.0, 80.0], 16, 5, EveMode.TIME_VARYING)
        sample_channels(config, [RngStream(5)], EveMode.TIME_VARYING)
        verify.check_config(config, 1)
        assert cli.main(["design", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "1", "--seed", "5"]) == 0
        capsys.readouterr()
        assert spawn_keys == []

    def test_each_eavesdropper_address_is_hashed_and_drawn_once(self, monkeypatch):
        # Use 0 of a time-varying sweep is the trial's own eavesdropper, at
        # address (1, t, 0), read from its draw: 16 trials over 3 points hash
        # 48 eavesdropper keys and make 80 generators (16 legitimate, 48
        # eavesdropper, 16 jamming), none of them twice.
        hashed = []
        real = channel._seed_words

        def recording(master_seed, keys, lengths=None):
            words = real(master_seed, keys, lengths)
            flat = np.asarray(keys, np.uint64).reshape(len(words), -1)
            cut = np.broadcast_to(flat.shape[1] if lengths is None else lengths, np.shape(keys)[:-1])
            hashed.extend(tuple(k[:n]) for k, n in zip(flat.tolist(), cut.ravel().tolist()) if k[0] == 1)
            return words

        monkeypatch.setattr(channel, "_seed_words", recording)
        made = count_generators(monkeypatch)
        sweep(AntennaConfig(2, 2, 3, 1), SignalParams(1.0), [60.0, 70.0, 80.0], 16, 5, EveMode.TIME_VARYING)
        assert sorted(hashed) == [(1, t, 2 * k) for t in range(16) for k in range(3)]
        assert len(made) == 16 * 5 and len({words.tobytes() for words in made}) == len(made)


class TestWorkerCap:
    """``sweep`` runs on no more worker processes than the process may use CPUs."""

    @pytest.mark.parametrize("cpus, workers", [(3, [3]), (None, [])])
    def test_workers_are_capped_at_the_cpu_count(self, cpus, workers, monkeypatch, forks):
        # 3: an affinity set of 3 of the host's 64 CPUs, so two forks beside
        # this process.  None: no affinity call and an unknown CPU count,
        # which ``usable_cpus`` reads as 1, so no fork.  ``workers`` lists
        # the worker count of each sweep that forked.
        def no_threads(self):
            raise AssertionError("a thread was started")

        args = (AntennaConfig(2, 2, 3, 2), SignalParams(1.0), [60.0, 80.0], 7, 4, EveMode.STATIC)
        sequential = sweep(*args, threads=1)
        bound_stacks(monkeypatch, args[0], 1, EveMode.STATIC)  # seven stacks
        monkeypatch.setattr(threading.Thread, "start", no_threads)
        if cpus is None:
            monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            monkeypatch.setattr(simulate.os, "cpu_count", lambda: 64)
        assert _result_bytes(sweep(*args, threads=100_000)) == _result_bytes(sequential)
        assert ([1 + len(forks)] if forks else []) == workers


class TestWorkers:
    """The fork helper that ``sweep`` and ``verify`` share: results in share order, and no child left."""

    ARGS = (AntennaConfig(2, 2, 3, 2), SignalParams(1.0), [60.0, 80.0], 5, 11, EveMode.STATIC)

    @pytest.fixture
    def nan_at(self, monkeypatch):
        """Poison the draws of the given trials with a NaN; return the setter."""
        real = simulate.sample_channels
        poisoned_trials = set()

        def poisoned(config, rngs, mode):
            ch = real(config, rngs, mode)
            h1 = ch.h1.copy()
            for row, rng in enumerate(rngs):
                if rng.trial in poisoned_trials:
                    h1[row, 0, 0] = np.nan
            return dataclasses.replace(ch, h1=h1)

        monkeypatch.setattr(simulate, "sample_channels", poisoned)
        return poisoned_trials.update

    @pytest.fixture
    def two_workers(self, monkeypatch, uncapped_workers):
        # Stacks of 2 trials: chunks [0], [1], [2], [3, 4], two per worker.
        bound_stacks(monkeypatch, self.ARGS[0], 2, EveMode.STATIC)

    def test_results_come_in_share_order(self, forks):
        assert simulate._in_workers(lambda share: share * 10, [0, 1, 2]) == [0, 10, 20]
        assert len(forks) == 2 and no_children()

    @pytest.mark.parametrize("failing, named", [((), None), ((0,), 0), ((3,), 3), ((0, 3), 0), ((2, 4), 2)])
    def test_no_process_outlives_a_sweep(self, failing, named, nan_at, two_workers, forks):
        # Trials 0 and 1 are this process's share, 2 to 4 the child's, whose
        # chunks are [2] and [3, 4]; the first failing chunk is reported.
        nan_at(failing)
        if named is None:
            assert np.isfinite(sweep(*self.ARGS, threads=2).legit).all()
        else:
            with pytest.raises(InvalidMatrix, match=re.escape(f"trial {named} master seed 11:")):
                sweep(*self.ARGS, threads=2)
        assert forks == [1] and no_children()

    def test_a_worker_that_sends_nothing_is_an_error(self, forks):
        def fn(share):
            if share:
                os._exit(3)
            return share

        with pytest.raises(ChildProcessError, match="ended without sending its result"):
            simulate._in_workers(fn, [0, 1])
        assert forks == [1] and no_children()

    def test_an_interrupt_kills_the_workers(self, forks):
        # The child would sleep a minute; it is killed and reaped at once.
        def fn(share):
            if share:
                time.sleep(60)
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            simulate._in_workers(fn, [0, 1])
        assert time.monotonic() - start < 30
        assert forks == [1] and no_children()

    def test_a_sweep_beside_a_live_thread_forks_nothing(self, two_workers, forks):
        sequential = sweep(*self.ARGS, threads=1)
        done = threading.Event()
        waiting = threading.Thread(target=done.wait, args=(60,))
        waiting.start()
        try:
            beside = sweep(*self.ARGS, threads=2)
        finally:
            done.set()
            waiting.join(60)
        assert not waiting.is_alive() and forks == []
        assert _result_bytes(beside) == _result_bytes(sequential)


class TestFailureAddress:
    """A failing trial is named with the config and master seed that reproduce it."""

    @pytest.fixture
    def nan_trial_3(self, monkeypatch):
        real = simulate.sample_channels

        def poisoned(config, rngs, mode):
            ch = real(config, rngs, mode)
            trials = [rng.trial for rng in rngs]
            if 3 in trials:
                h1 = ch.h1.copy()
                h1[trials.index(3), 0, 0] = np.nan
                ch = dataclasses.replace(ch, h1=h1)
            return ch

        monkeypatch.setattr(simulate, "sample_channels", poisoned)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_build_failure_names_trial_and_seed(
        self, nan_trial_3, threads, monkeypatch, uncapped_workers, forks
    ):
        config = AntennaConfig(2, 2, 3, 2)
        if threads > 1:  # four stacks on two workers, trial 3 opening the forked one's last
            bound_stacks(monkeypatch, config, 2, EveMode.STATIC)
        with pytest.raises(InvalidMatrix) as exc:
            sweep(config, SignalParams(1.0), [60.0, 80.0], 5, 11, EveMode.STATIC, threads=threads)
        message = str(exc.value)
        assert f"{config} trial 3 master seed 11:" in message
        assert "h1 contains non-finite entries" in message
        assert len(forks) == threads - 1

    def test_cli_exit_code_is_unchanged(self, nan_trial_3, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "2", "--trials", "5",
             "--seed", "11", "--csv", str(tmp_path / "s.csv"), "--summary", str(tmp_path / "s.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "trial 3 master seed 11" in err and err.count("\n") == 1

    def test_check_config_names_config_and_seed(self, monkeypatch):
        # verify reads each family's channels from its seeds' normals, one
        # row per seed: row 2 is seed 2.
        real = TrialNormals.channels

        def poisoned(normals, config):
            ch = real(normals, config)
            h2 = ch.h2.copy()
            h2[2] = np.inf
            return dataclasses.replace(ch, h2=h2)

        monkeypatch.setattr(TrialNormals, "channels", poisoned)
        config = AntennaConfig(2, 2, 3, 1)
        with pytest.raises(InvalidMatrix, match=re.escape(f"{config} seed 2: stack member 2: h2")):
            verify.check_config(config, 4)

    def test_check_config_rejects_an_empty_stack(self, monkeypatch):
        made = count_generators(monkeypatch)
        config = AntennaConfig(2, 2, 3, 2)
        with pytest.raises(InvalidMatrix, match=re.escape(f"{config}: h1 is an empty stack")):
            verify.check_config(config, 0)
        assert made == []  # no seeds: nothing is hashed or seeded

    def test_check_config_writes_one_line_per_failing_seed(self, monkeypatch):
        # The gates compare all seeds at once; each failing seed still gets
        # its own line naming every check it failed.
        real = verify._decide_ranks

        def off_at_seed_1(matrices):
            # One configuration's rank matrices: u, legit, then leakage.
            decided = real(matrices)
            decided[2] = decided[2].copy()
            decided[2][1] += 1
            return decided

        monkeypatch.setattr(verify, "_decide_ranks", off_at_seed_1)
        config = AntennaConfig(2, 2, 3, 2)  # aligned jamming only: no nullspace residual
        _, failures = verify.check_config(config, 3)
        assert failures == [f"{config} seed 1: leakage rank 5 != 4"]
        monkeypatch.setattr(verify, "NULLSPACE_RESIDUAL_MAX", -1.0)
        _, failures = verify.check_config(config, 3)
        assert failures == [
            f"{config} seed 0: nullspace residual 0.00e+00",
            f"{config} seed 1: nullspace residual 0.00e+00; leakage rank 5 != 4",
            f"{config} seed 2: nullspace residual 0.00e+00",
        ]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_stacked_rate_failure_names_its_trial(self, threads, monkeypatch, uncapped_workers):
        # An inf entry in trial 3's eavesdropper matrices is rejected where
        # the channels enter the rate functions, before any product with it
        # could warn (the suite turns warnings into errors): InvalidMatrix,
        # naming the trial.
        real = simulate.channel_uses

        def poisoned(config, trial_ch, rngs, *args):
            seen = real(config, trial_ch, rngs, *args)
            trials = [rng.trial for rng in rngs]
            if 3 in trials:
                g1 = seen.g1.copy()
                g1[trials.index(3), :, 0, 0] = np.inf
                seen = dataclasses.replace(seen, g1=g1)
            return seen

        monkeypatch.setattr(simulate, "channel_uses", poisoned)
        config = AntennaConfig(2, 2, 3, 2)
        if threads > 1:  # four stacks on two workers, trial 3 opening the last
            bound_stacks(monkeypatch, config, 2, EveMode.TIME_VARYING)
        with pytest.raises(InvalidMatrix) as exc:
            sweep(config, SignalParams(1.0), [60.0, 80.0], 5, 11, EveMode.TIME_VARYING, threads=threads)
        assert f"{config} trial 3 master seed 11:" in str(exc.value)
        assert "g1 contains non-finite entries" in str(exc.value)

    def test_rate_failure_names_trial_and_seed(self):
        # At 3080 dB the one legitimate real stream of (1, 1, 1, 1) has SNR
        # 0.9 p / (1/2), which overflows at alpha = 0.1 for every trial: the
        # first is named.
        config = AntennaConfig(1, 1, 1, 1)
        sig = SignalParams(1.0, alpha=0.1)
        with pytest.raises(NumericalFailure, match=re.escape(f"{config} trial 0 master seed 7:")):
            sweep(config, sig, [3079.0, 3080.0], 2, 7, EveMode.STATIC)


def _one_trial(grid, legit, leakage):
    """A sweep result of one trial with the given rates at each grid point."""
    return SweepResult(np.array(grid), np.array([legit], dtype=float), np.array([leakage], dtype=float))


class TestEstimateDof:
    def test_exact_line(self):
        grid = [60.0, 70.0, 80.0, 90.0, 100.0]
        result = _one_trial(grid, [2.0 * (p * HALF_LOG2_PER_DB) + 5.0 for p in grid], [0.0] * 5)
        legit, leak = estimate_dof(result, (60.0, 100.0))
        assert legit.slope == pytest.approx(2.0, abs=1e-12)
        assert legit.intercept == pytest.approx(5.0, abs=1e-9)
        assert legit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert leak.slope == pytest.approx(0.0, abs=1e-12)

    def test_constant_rate(self):
        result = _one_trial([60.0, 70.0, 80.0], [3.25] * 3, [1.0] * 3)
        legit, leak = estimate_dof(result, (60.0, 100.0))
        assert legit.slope == 0.0
        assert leak.slope == 0.0

    def test_window_filtering(self):
        grid = [10.0, 60.0, 70.0, 80.0]
        legit, _ = estimate_dof(_one_trial(grid, grid, [0.0] * 4), (60.0, 100.0))
        assert legit.window == (60.0, 100.0)

    def test_insufficient_points(self):
        result = _one_trial([60.0, 70.0], [1.0, 2.0], [0.0, 0.0])
        with pytest.raises(InsufficientData):
            estimate_dof(result, (60.0, 100.0))

    def test_end_to_end_slope(self):
        config = AntennaConfig(2, 2, 3, 2)
        result = sweep(config, SignalParams(1.0), [60.0, 70.0, 80.0, 90.0, 100.0], 10, 42, EveMode.STATIC)
        legit, _ = estimate_dof(result, (60.0, 100.0))
        assert abs(legit.slope - sum_sdof(config).value) <= 0.15

    def test_slope_holds_far_above_100_db(self):
        # Rates stay exact where I + E E^H is numerically E E^H.
        config = AntennaConfig(2, 2, 3, 2)
        grid = [140.0, 150.0, 160.0, 170.0]
        result = sweep(config, SignalParams(1.0), grid, 20, 0, EveMode.TIME_VARYING)
        legit, _ = estimate_dof(result, (140.0, 170.0))
        assert abs(legit.slope - sum_sdof(config).value) <= 1e-3


class TestStaticEavesdropper:
    # Every allocation, half-integer ones included, jams a static
    # eavesdropper fully in one channel use: its leakage stays flat.
    @pytest.mark.parametrize("cfg", [(1, 1, 1, 1), (2, 2, 3, 1), (4, 4, 6, 3)])
    def test_leakage_slope_is_flat(self, cfg):
        config = AntennaConfig(*cfg)
        result = sweep(config, SignalParams(1.0), [60.0, 70.0, 80.0, 90.0, 100.0], 20, 1, EveMode.STATIC)
        legit, leak = estimate_dof(result, (60.0, 100.0))
        assert abs(leak.slope) <= 0.05
        assert abs(legit.slope - sum_sdof(config).value) <= 0.15


class TestSecrecyPositivity:
    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (2, 2, 3, 1), (5, 1, 2, 5), (1, 1, 1, 1)])
    def test_mean_secrecy_margin_positive_at_high_power(self, cfg):
        config = AntennaConfig(*cfg)
        assert sum_sdof(config).value > 0
        result = sweep(config, SignalParams(1.0), [60.0, 80.0, 100.0], 10, 13, EveMode.STATIC)
        margins = (result.legit - result.leakage).mean(axis=0)
        for p_db, margin in zip(result.grid, margins):
            assert margin > 0.0, (cfg, p_db)
