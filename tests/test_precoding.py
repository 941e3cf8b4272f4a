import dataclasses

import numpy as np
import pytest

from helpers import crandn, elimination_rank, ks_statistic, max_abs
from sdoflab import (
    AntennaConfig,
    DimensionMismatch,
    EveMode,
    InfeasibleAllocation,
    InvalidMatrix,
    NumericalFailure,
    RngStream,
    allocate_jamming,
    build_precoders,
    channel_use,
    leakage_rank,
    nullspace_jamming,
    random_jamming,
    sample_channels,
)
from sdoflab.channel import jamming_generators
from sdoflab.precoding import _aligned_targets
from sdoflab.subspaces import orthonormal_basis, solve_into


def _kron2(h):
    """Test-built slot space of a channel held over two slots."""
    return np.kron(np.eye(2), h)


def _targets(h1, h2, pairs, slots):
    """Aligned targets from one slot's channels, through their received bases."""
    return _aligned_targets(orthonormal_basis(h1), orthonormal_basis(h2), pairs, slots)


def _aligned(h1, h2, pairs, slots):
    """The build's aligned path: shared targets, then one solve per transmitter.

    Returns v1, v2, the targets and the two slot-space channels.
    """
    targets = _targets(h1, h2, pairs, slots)
    if slots == 2:
        h1, h2 = _kron2(h1), _kron2(h2)
    return solve_into(h1, targets), solve_into(h2, targets), targets, h1, h2


class TestRandomJamming:
    def test_zero_streams(self):
        assert random_jamming(3, 0, np.random.default_rng(0)).shape == (3, 0)

    def test_orthonormal(self):
        v = random_jamming(4, 2, np.random.default_rng(1))
        assert max_abs(v.conj().T @ v - np.eye(2)) < 1e-10

    def test_too_many_streams(self):
        with pytest.raises(DimensionMismatch):
            random_jamming(2, 3, np.random.default_rng(0))

    def test_deterministic_through_jamming_generator(self):
        a = random_jamming(4, 2, jamming_generators([RngStream(5)])[0])
        b = random_jamming(4, 2, jamming_generators([RngStream(5)])[0])
        other = random_jamming(4, 2, jamming_generators([RngStream(6)])[0])
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)

    def test_direction_uniform_on_sphere(self):
        # For a Haar-random unit vector v in C^m, |v_1|^2 ~ Beta(1, m-1).
        m = 4
        gen = np.random.default_rng(2024)
        samples = [abs(random_jamming(m, 1, gen)[0, 0]) ** 2 for _ in range(2000)]
        stat = ks_statistic(samples, lambda x: 1.0 - (1.0 - np.asarray(x)) ** (m - 1))
        assert stat < 0.05  # ~alpha 1e-3 critical value for n=2000


class TestNullspaceJamming:
    def test_full_rank_square_is_infeasible(self):
        h = np.eye(3)
        with pytest.raises(InfeasibleAllocation):
            nullspace_jamming(h, 1)

    def test_wide_channel(self):
        gen = np.random.default_rng(3)
        h = crandn(gen, 2, 5)
        v = nullspace_jamming(h, 3)
        assert v.shape == (5, 3)
        assert max_abs(h @ v) < 1e-9
        assert max_abs(v.conj().T @ v - np.eye(3)) < 1e-10

    def test_zero_streams(self):
        assert nullspace_jamming(np.eye(3), 0).shape == (3, 0)


class TestAlignedJamming:
    # One slot takes intersection columns; two slots take their (c; +-c)/sqrt(2)
    # mixtures on the doubled receive space.  Both go through one path.
    def test_identical_channels(self):
        for slots in (1, 2):
            v1, v2, targets, _, _ = _aligned(np.eye(3), np.eye(3), 2, slots)
            assert max_abs(v1 - v2) < 1e-12
            assert targets.shape == (3 * slots, 2)

    def test_generic_intersection(self):
        gen = np.random.default_rng(4)
        h1, h2 = crandn(gen, 3, 2), crandn(gen, 3, 2)
        for slots in (1, 2):
            # a one-dimensional intersection carries one pair per slot
            v1, v2, targets, h1s, h2s = _aligned(h1, h2, slots, slots)
            assert max_abs(h1s @ v1 - h2s @ v2) < 1e-8
            assert max_abs(h1s @ v1 - targets) < 1e-8
            assert max_abs(targets.conj().T @ targets - np.eye(slots)) < 1e-12

    def test_empty_intersection_is_infeasible(self):
        gen = np.random.default_rng(5)
        empty = (crandn(gen, 4, 2), crandn(gen, 4, 1))
        line = (crandn(gen, 3, 2), crandn(gen, 3, 2))
        for (h1, h2), pairs, slots in ((empty, 1, 1), (empty, 1, 2), (line, 2, 1), (line, 3, 2)):
            with pytest.raises(InfeasibleAllocation):
                _targets(h1, h2, pairs, slots)

    def test_unaligned_at_eavesdropper(self):
        # aligned at the receiver yet generically separate through an
        # independent eavesdropper channel
        gen = np.random.default_rng(6)
        h1, h2 = crandn(gen, 3, 2), crandn(gen, 3, 2)
        for slots in (1, 2):
            v1, v2, _, _, _ = _aligned(h1, h2, 1, slots)
            g1, g2 = crandn(gen, 2, 2 * slots), crandn(gen, 2, 2 * slots)
            received = np.hstack([g1 @ v1, g2 @ v2])
            assert elimination_rank(received) == 2


class TestBuildPrecoders:
    def build(self, cfg, seed=0):
        config = AntennaConfig(*cfg)
        rng = RngStream(seed)
        ch = sample_channels(config, rng, EveMode.TIME_VARYING)
        alloc = allocate_jamming(config)
        pre = build_precoders(config, ch, alloc, rng)
        return config, ch, alloc, pre, pre.report

    def test_random_region(self):
        _, _, _, pre, report = self.build((2, 2, 4, 1))
        assert report.u_rank == 3
        assert report.legit_rank == 3

    def test_nullspace_region_has_identity_projector(self):
        _, ch, _, pre, report = self.build((4, 1, 2, 1))
        assert max_abs(ch.h1 @ pre.v1_j) < 1e-9
        assert max_abs(pre.u - np.eye(2)) < 1e-9
        assert report.legit_rank == 2

    def test_aligned_region(self):
        _, _, _, pre, report = self.build((2, 2, 3, 2))
        assert report.u_rank == 2
        assert report.legit_rank == 2
        assert report.alignment_residual < 1e-8

    def test_two_slot_extension(self):
        config, ch, alloc, pre, report = self.build((2, 2, 3, 1))
        assert pre.slots == 2
        assert pre.v1_j.shape == (4, 1)  # doubled antenna space
        assert report.u_rank == 5  # 2n - 2 j_s = 6 - 1
        assert report.legit_rank == 5  # 2 (d1 + d2)

    @pytest.mark.parametrize(
        "cfg", [(2, 2, 3, 2), (4, 1, 2, 1), (2, 2, 4, 1), (2, 2, 3, 1), (4, 4, 6, 3)]
    )
    def test_report_matches_recomputation(self, cfg):
        # The report against its quantities recomputed here on a np.kron
        # slot space, ranks by elimination; (2, 2, 3, 1) and (4, 4, 6, 3)
        # use the two-slot extension.
        _, ch, _, pre, report = self.build(cfg, seed=3)
        h1, h2 = (ch.h1, ch.h2) if pre.slots == 1 else (_kron2(ch.h1), _kron2(ch.h2))
        legit = np.hstack([h1 @ pre.v1_l, h2 @ pre.v2_l])
        jamming = np.hstack([h1 @ pre.v1_j, h2 @ pre.v2_j])
        assert report.u_rank == elimination_rank(pre.u)
        assert report.legit_rank == elimination_rank(pre.u @ legit)
        assert report.zero_forcing_residual == max_abs(pre.u @ jamming)
        stacks = (np.hstack([pre.v1_l, pre.v1_j]), np.hstack([pre.v2_l, pre.v2_j]))
        assert report.unitarity_residual == max(
            max_abs(v.conj().T @ v - np.eye(v.shape[1])) for v in stacks
        )

    def test_propagates_infeasibility(self):
        config = AntennaConfig(2, 2, 3, 2)
        alloc = allocate_jamming(AntennaConfig(5, 1, 2, 5))
        rng = RngStream(0)
        ch = sample_channels(config, rng, EveMode.STATIC)
        with pytest.raises(InfeasibleAllocation):
            build_precoders(config, ch, alloc, rng)

    def test_rejects_nonfinite_channel(self):
        # Outside input is checked where it enters the build.
        config = AntennaConfig(2, 2, 3, 2)
        rng = RngStream(0)
        ch = sample_channels(config, rng, EveMode.STATIC)
        h1 = ch.h1.copy()
        h1[0, 1] = np.nan
        with pytest.raises(InvalidMatrix):
            build_precoders(config, dataclasses.replace(ch, h1=h1), allocate_jamming(config), rng)

    def test_precoder_invariants_small_sweep(self):
        for m1 in range(1, 4):
            for m2 in range(1, 4):
                for n in range(1, 4):
                    for n_e in range(0, m1 + m2):
                        for seed in range(3):
                            config = AntennaConfig(m1, m2, n, n_e)
                            rng = RngStream(seed)
                            ch = sample_channels(config, rng, EveMode.TIME_VARYING)
                            alloc = allocate_jamming(config)
                            pre = build_precoders(config, ch, alloc, rng)
                            report = pre.report
                            slots = pre.slots
                            stacked1 = np.hstack([pre.v1_l, pre.v1_j])
                            if stacked1.shape[1]:
                                gram = stacked1.conj().T @ stacked1
                                assert max_abs(gram - np.eye(stacked1.shape[1])) < 1e-9
                            assert max_abs(pre.u @ pre.u - pre.u) < 1e-9
                            assert max_abs(pre.u - pre.u.conj().T) < 1e-12
                            assert report.u_rank == slots * n - int(alloc.j_s * slots)
                            assert report.legit_rank == int(alloc.d_total * slots)
                            assert report.zero_forcing_residual < 1e-8


class TestLeakageRank:
    def test_no_jamming(self):
        config = AntennaConfig(2, 2, 3, 0)
        rng = RngStream(0)
        ch = sample_channels(config, rng, EveMode.STATIC)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        assert leakage_rank(ch, pre) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_aligned_pair_fills_eavesdropper(self, seed):
        config = AntennaConfig(2, 2, 3, 2)
        rng = RngStream(seed)
        ch = sample_channels(config, rng, EveMode.STATIC)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        assert leakage_rank(ch, pre) == 2

    def test_full_allocation(self):
        config = AntennaConfig(5, 1, 2, 5)
        rng = RngStream(1)
        ch = sample_channels(config, rng, EveMode.STATIC)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        assert leakage_rank(ch, pre) == 5

    def test_two_slot_needs_per_slot_draws(self):
        # With per-slot eavesdropper draws the doubled system is fully
        # jammed; a static eavesdropper sees the cross-slot pair collapse
        # (the gap exact fractional alignment would close).
        config = AntennaConfig(2, 2, 3, 1)
        rng = RngStream(2)
        ch = sample_channels(config, rng, EveMode.TIME_VARYING)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        assert pre.slots == 2
        varying = channel_use(config, ch, rng, 0, EveMode.TIME_VARYING, pre.slots)
        held = channel_use(config, ch, rng, 0, EveMode.STATIC, pre.slots)
        assert leakage_rank(varying, pre) == 2
        assert leakage_rank(held, pre) == 1

    def test_rejects_nonfinite_channel(self):
        config = AntennaConfig(2, 2, 3, 2)
        rng = RngStream(0)
        ch = sample_channels(config, rng, EveMode.STATIC)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        g1 = ch.g1.copy()
        g1[0, 1] = np.nan
        with pytest.raises(InvalidMatrix):
            leakage_rank(dataclasses.replace(ch, g1=g1), pre)

    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (2, 2, 3, 1)])
    def test_default_second_slot_matches_oracle(self, cfg):
        # The static model against a test-built np.kron slot space and the
        # elimination rank.
        config = AntennaConfig(*cfg)
        rng = RngStream(8)
        ch = sample_channels(config, rng, EveMode.STATIC)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        g1, g2 = ch.g1, ch.g2
        if pre.slots == 2:
            g1, g2 = np.kron(np.eye(2), g1), np.kron(np.eye(2), g2)
        expected = elimination_rank(np.hstack([g1 @ pre.v1_j, g2 @ pre.v2_j]))
        held = channel_use(config, ch, rng, 0, EveMode.STATIC, pre.slots)
        assert leakage_rank(held, pre) == expected


def _trial_stack(config, trials, seed=4, mode=EveMode.TIME_VARYING):
    """The trials' RNG streams and their draws, stacked along a leading trial axis."""
    rngs = [RngStream(seed, (t, 0)) for t in trials]
    return rngs, sample_channels(config, rngs, mode)


def _same_set(a, b):
    """Bit-for-bit equality of two precoder sets, report included."""
    matrices = ("v1_l", "v1_j", "v2_l", "v2_j", "u")
    return (
        all(np.array_equal(getattr(a, k), getattr(b, k)) for k in matrices)
        and a.slots == b.slots
        and a.report == b.report
    )


class TestStackedBuild:
    # (4, 1, 2, 1) nullspace, (2, 2, 4, 1) random, (2, 2, 3, 2) aligned,
    # (5, 1, 2, 5) all three, (2, 2, 3, 1) and (4, 4, 6, 3) two slots,
    # (2, 2, 3, 0) no jamming.
    configs = [(4, 1, 2, 1), (2, 2, 4, 1), (2, 2, 3, 2), (5, 1, 2, 5), (2, 2, 3, 1),
               (4, 4, 6, 3), (2, 2, 3, 0)]

    @pytest.mark.parametrize("cfg", configs)
    def test_a_trial_does_not_depend_on_its_stack(self, cfg):
        config = AntennaConfig(*cfg)
        alloc = allocate_jamming(config)
        rngs, stacked = _trial_stack(config, range(7))
        whole = build_precoders(config, stacked, alloc, rngs)
        assert len(whole) == 7
        for part in (range(0, 3), range(3, 7), range(5, 6)):
            sub_rngs, sub = _trial_stack(config, part)
            for t, pre in zip(part, build_precoders(config, sub, alloc, sub_rngs)):
                assert _same_set(pre, whole[t])
        # a single trial is a stack of one
        rng = rngs[6]
        alone = build_precoders(config, sample_channels(config, rng, EveMode.TIME_VARYING), alloc, rng)
        assert _same_set(alone, whole[6])

    @pytest.mark.parametrize("cfg", configs)
    def test_every_trial_meets_the_invariants(self, cfg):
        config = AntennaConfig(*cfg)
        alloc = allocate_jamming(config)
        rngs, stacked = _trial_stack(config, range(5), seed=9)
        for t, pre in enumerate(build_precoders(config, stacked, alloc, rngs)):
            slots = pre.slots
            h1, h2 = stacked.h1[t], stacked.h2[t]
            if slots == 2:
                h1, h2 = _kron2(h1), _kron2(h2)
            legit = np.hstack([h1 @ pre.v1_l, h2 @ pre.v2_l])
            assert pre.report.u_rank == elimination_rank(pre.u) == slots * config.n - int(alloc.j_s * slots)
            assert pre.report.legit_rank == elimination_rank(pre.u @ legit) == int(alloc.d_total * slots)
            assert pre.report.zero_forcing_residual < 1e-8

    def test_needs_one_stream_per_trial(self):
        config = AntennaConfig(2, 2, 3, 2)
        rngs, stacked = _trial_stack(config, range(3))
        with pytest.raises(DimensionMismatch):
            build_precoders(config, stacked, allocate_jamming(config), rngs[:2])

    def test_non_finite_trial_is_named(self):
        config = AntennaConfig(2, 2, 3, 2)
        rngs, stacked = _trial_stack(config, range(4))
        h2 = stacked.h2.copy()
        h2[2, 0, 0] = np.nan
        with pytest.raises(InvalidMatrix, match="stack member 2: h2") as exc:
            build_precoders(config, dataclasses.replace(stacked, h2=h2), allocate_jamming(config), rngs)
        assert exc.value.member == 2

    def test_rank_deficient_trial_is_named(self):
        # A nullspace block's width is the channel's nullity: a rank-one
        # channel in a stack of generic ones changes it for that trial alone.
        config = AntennaConfig(4, 1, 2, 1)
        rngs, stacked = _trial_stack(config, range(4))
        h1 = stacked.h1.copy()
        h1[3] = np.outer(h1[3][:, 0], h1[3][0])
        with pytest.raises(NumericalFailure, match="stack member 3:") as exc:
            build_precoders(config, dataclasses.replace(stacked, h1=h1), allocate_jamming(config), rngs)
        assert exc.value.member == 3
