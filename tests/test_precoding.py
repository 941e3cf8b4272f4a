import numpy as np
import pytest

from helpers import crandn, elimination_rank, ks_statistic, max_abs
from sdoflab import (
    AntennaConfig,
    DimensionMismatch,
    EveMode,
    InfeasibleAllocation,
    RngStream,
    aligned_jamming,
    allocate_jamming,
    build_precoders,
    channel_use,
    leakage_rank,
    nullspace_jamming,
    random_jamming,
    sample_channels,
)
from sdoflab.precoding import _build_with_report
from sdoflab.subspaces import DEFAULT_TOL


class TestRandomJamming:
    def test_zero_streams(self):
        assert random_jamming(3, 0, np.random.default_rng(0)).shape == (3, 0)

    def test_orthonormal(self):
        v = random_jamming(4, 2, np.random.default_rng(1))
        assert max_abs(v.conj().T @ v - np.eye(2)) < 1e-10

    def test_too_many_streams(self):
        with pytest.raises(DimensionMismatch):
            random_jamming(2, 3, np.random.default_rng(0))

    def test_accepts_rng_stream(self):
        a = random_jamming(4, 2, RngStream(5))
        b = random_jamming(4, 2, RngStream(5))
        assert np.array_equal(a, b)

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
    def test_identical_channels(self):
        v1, v2, shared = aligned_jamming(np.eye(3), np.eye(3), 2)
        assert max_abs(v1 - v2) < 1e-12
        assert shared.dim == 2

    def test_generic_intersection(self):
        gen = np.random.default_rng(4)
        h1, h2 = crandn(gen, 3, 2), crandn(gen, 3, 2)
        v1, v2, shared = aligned_jamming(h1, h2, 1)
        assert max_abs(h1 @ v1 - h2 @ v2) < 1e-8
        assert max_abs(h1 @ v1 - shared.basis) < 1e-8

    def test_empty_intersection_is_infeasible(self):
        gen = np.random.default_rng(5)
        with pytest.raises(InfeasibleAllocation):
            aligned_jamming(crandn(gen, 4, 2), crandn(gen, 4, 1), 1)

    def test_unaligned_at_eavesdropper(self):
        # aligned at the receiver yet generically separate through an
        # independent eavesdropper channel
        gen = np.random.default_rng(6)
        h1, h2 = crandn(gen, 3, 2), crandn(gen, 3, 2)
        v1, v2, _ = aligned_jamming(h1, h2, 1)
        g1, g2 = crandn(gen, 2, 2), crandn(gen, 2, 2)
        received = np.hstack([g1 @ v1, g2 @ v2])
        assert elimination_rank(received) == 2


class TestBuildPrecoders:
    def build(self, cfg, seed=0):
        config = AntennaConfig(*cfg)
        rng = RngStream(seed)
        ch = sample_channels(config, rng, EveMode.TIME_VARYING)
        alloc = allocate_jamming(config)
        pre, report = _build_with_report(config, ch, alloc, rng, DEFAULT_TOL)
        return config, ch, alloc, pre, report

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

    def test_propagates_infeasibility(self):
        config = AntennaConfig(2, 2, 3, 2)
        alloc = allocate_jamming(AntennaConfig(5, 1, 2, 5))
        rng = RngStream(0)
        ch = sample_channels(config, rng)
        with pytest.raises(InfeasibleAllocation):
            build_precoders(config, ch, alloc, rng)

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
                            pre, report = _build_with_report(config, ch, alloc, rng, DEFAULT_TOL)
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
        ch = sample_channels(config, rng)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        assert leakage_rank(ch, pre) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_aligned_pair_fills_eavesdropper(self, seed):
        config = AntennaConfig(2, 2, 3, 2)
        rng = RngStream(seed)
        ch = sample_channels(config, rng)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        assert leakage_rank(ch, pre) == 2

    def test_full_allocation(self):
        config = AntennaConfig(5, 1, 2, 5)
        rng = RngStream(1)
        ch = sample_channels(config, rng)
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

    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (2, 2, 3, 1)])
    def test_default_second_slot_matches_oracle(self, cfg):
        # The static model, sweep()'s default, against a test-built np.kron
        # slot space and the elimination rank.
        config = AntennaConfig(*cfg)
        rng = RngStream(8)
        ch = sample_channels(config, rng)
        pre = build_precoders(config, ch, allocate_jamming(config), rng)
        g1, g2 = ch.g1, ch.g2
        if pre.slots == 2:
            g1, g2 = np.kron(np.eye(2), g1), np.kron(np.eye(2), g2)
        expected = elimination_rank(np.hstack([g1 @ pre.v1_j, g2 @ pre.v2_j]))
        held = channel_use(config, ch, rng, 0, EveMode.STATIC, pre.slots)
        assert leakage_rank(held, pre) == expected
