import dataclasses

import numpy as np
import pytest

from helpers import crandn, elimination_rank, ks_statistic, max_abs, member, real2
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
    leakage_rank,
    sample_channels,
)
from sdoflab.channel import (
    _DOMAIN_JAMMING,
    TrialNormals,
    channel_uses,
)
from sdoflab.precoding import (
    DrawFactors,
    _aligned_targets,
    _haar_columns,
    _nullspace_block,
    audit_set,
)
from sdoflab.sdof import _antenna_grid
from sdoflab.subspaces import as_matrix, intersect, nullspace, orthonormal_basis, solve_into


def _targets(h1, h2, pairs):
    """Aligned targets of two channels, through the intersection of their received bases."""
    return _aligned_targets(intersect(orthonormal_basis(h1), orthonormal_basis(h2)), pairs)


def _aligned(h1, h2, pairs):
    """The build's aligned path: shared targets, then one solve per transmitter.

    Returns v1, v2 and the targets.
    """
    targets = _targets(h1, h2, pairs)
    return solve_into(h1, targets), solve_into(h2, targets), targets


def _jamming_rows(rngs, length):
    """The first ``length`` normals of each stream's jamming address, one row per stream."""
    return TrialNormals.draw(rngs, jamming=length).jamming


class TestRandomJamming:
    # The build's random block: one Haar isometry per row of jamming normals.
    def test_zero_streams(self):
        assert _haar_columns(3, 0, np.zeros((1, 0))).shape == (1, 3, 0)

    def test_orthonormal(self):
        (v,) = _haar_columns(4, 2, np.random.default_rng(1).standard_normal((1, 8)))
        assert v.dtype == np.float64
        assert max_abs(v.T @ v - np.eye(2)) < 1e-10

    def test_too_many_streams(self):
        with pytest.raises(DimensionMismatch):
            _haar_columns(2, 3, np.zeros((1, 6)))

    def test_deterministic_through_jamming_stream(self):
        a = _haar_columns(4, 2, _jamming_rows([RngStream(5)], 8))
        b = _haar_columns(4, 2, _jamming_rows([RngStream(5)], 20))
        other = _haar_columns(4, 2, _jamming_rows([RngStream(6)], 8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)

    @pytest.mark.parametrize("trials", [1, 11])
    def test_rows_read_as_successive_block_draws(self, trials):
        # The build reads its blocks from one row in turn; a generator
        # drawing each (m, k) block by itself draws the same numbers.
        rngs = [RngStream(7, t) for t in range(trials)]
        rows = _jamming_rows(rngs, 4 * 2 + 3 * 3)
        for rng, row in zip(rngs, rows):
            key = (_DOMAIN_JAMMING, rng.trial)
            gen = np.random.default_rng(np.random.SeedSequence(7, spawn_key=key))
            blocks = [gen.standard_normal((4, 2)), gen.standard_normal((3, 3))]
            assert np.array_equal(np.concatenate([b.ravel() for b in blocks]), row)
        (first,) = _haar_columns(4, 2, rows[:1])
        (again,) = _haar_columns(4, 2, rows[:1, :8])
        assert np.array_equal(first, again)

    def test_direction_uniform_on_sphere(self):
        # For a Haar-random unit vector v in R^3, |v_1| is uniform on [0, 1]
        # (Archimedes' hat-box theorem), so v_1^2 has CDF sqrt(x).  2000
        # draws in turn from one generator, as a stack of 2000.
        gen = np.random.default_rng(2024)
        samples = _haar_columns(3, 1, gen.standard_normal((2000, 3)))[:, 0, 0] ** 2
        stat = ks_statistic(samples, lambda x: np.sqrt(np.asarray(x)))
        assert stat < 0.05  # ~alpha 1e-3 critical value for n=2000


class TestNullspaceJamming:
    # The build's nullspace block, on a channel as it enters the library.
    def test_full_rank_square_is_infeasible(self):
        h = as_matrix(np.eye(3)[None])[0]
        with pytest.raises(InfeasibleAllocation):
            _nullspace_block(nullspace(h), h, 1)

    def test_wide_channel(self):
        gen = np.random.default_rng(3)
        h = crandn(gen, 2, 5)
        v = _nullspace_block(nullspace(h), h, 3)
        assert v.shape == (5, 3)
        assert max_abs(h @ v) < 1e-9
        assert max_abs(v.conj().T @ v - np.eye(3)) < 1e-10

    def test_zero_streams(self):
        h = as_matrix(np.eye(3)[None])[0]
        assert _nullspace_block(nullspace(h), h, 0).shape == (3, 0)


class TestAlignedJamming:
    # Aligned targets are the first columns of a basis of the intersection
    # of the received signal spaces, here of real forms of complex channels.
    def test_identical_channels(self):
        h = real2(np.eye(3))
        v1, v2, targets = _aligned(h, h, 2)
        assert max_abs(v1 - v2) < 1e-12
        assert targets.shape == (6, 2)

    def test_generic_intersection(self):
        # Two complex planes in C^3 meet in a line: two real dimensions.
        gen = np.random.default_rng(4)
        h1, h2 = real2(crandn(gen, 3, 2)), real2(crandn(gen, 3, 2))
        for pairs in (1, 2):
            v1, v2, targets = _aligned(h1, h2, pairs)
            assert max_abs(h1 @ v1 - h2 @ v2) < 1e-8
            assert max_abs(h1 @ v1 - targets) < 1e-8
            assert max_abs(targets.T @ targets - np.eye(pairs)) < 1e-12

    def test_empty_intersection_is_infeasible(self):
        gen = np.random.default_rng(5)
        empty = (real2(crandn(gen, 4, 2)), real2(crandn(gen, 4, 1)))
        line = (real2(crandn(gen, 3, 2)), real2(crandn(gen, 3, 2)))
        for (h1, h2), pairs in ((empty, 1), (line, 3)):
            with pytest.raises(InfeasibleAllocation):
                _targets(h1, h2, pairs)

    def test_unaligned_at_eavesdropper(self):
        # Aligned at the receiver, yet apart at a one-antenna eavesdropper:
        # its channel turns the two streams by different complex gains.
        # One real pair (a half-integer count) already fills both of its
        # real dimensions.
        gen = np.random.default_rng(6)
        h1, h2 = real2(crandn(gen, 3, 2)), real2(crandn(gen, 3, 2))
        for pairs in (1, 2):
            v1, v2, _ = _aligned(h1, h2, pairs)
            g1, g2 = real2(crandn(gen, 1, 2)), real2(crandn(gen, 1, 2))
            received = np.hstack([g1 @ v1, g2 @ v2])
            assert elimination_rank(received) == 2


def _build_one(config, rng, mode=EveMode.TIME_VARYING):
    """One trial built as a stack of one: its streams, draw and set."""
    rngs = [rng]
    ch = sample_channels(config, rngs, mode)
    return rngs, ch, build_precoders(ch, allocate_jamming(config), rngs)


def _audit(ch, pre):
    """``audit_set`` of a stacked set on the draw it was built on, eavesdropper included."""
    return audit_set(DrawFactors(ch), pre, ch)


class TestBuildPrecoders:
    def build(self, cfg, seed=0):
        """The config, one trial's matrices, the allocation, its set and the set's audit."""
        config = AntennaConfig(*cfg)
        _, ch, pre = _build_one(config, RngStream(seed))
        audit = member(_audit(ch, pre), 0)
        return config, member(ch, 0), allocate_jamming(config), member(pre, 0), audit

    # Ranks count real dimensions, as the allocation's counts do.
    def test_random_region(self):
        _, _, _, pre, audit = self.build((2, 2, 4, 1))
        assert audit.ranks()[0] == 6
        assert audit.ranks()[1] == 6

    def test_nullspace_region_has_identity_projector(self):
        _, ch, _, pre, audit = self.build((4, 1, 2, 1))
        assert max_abs(real2(ch.h1) @ pre.v1_j) < 1e-9
        assert max_abs(pre.u - np.eye(4)) < 1e-9
        assert audit.ranks()[1] == 4

    def test_aligned_region(self):
        _, _, _, pre, audit = self.build((2, 2, 3, 2))
        assert audit.ranks()[0] == 4
        assert audit.ranks()[1] == 4
        assert pre.report.alignment_residual < 1e-8

    def test_two_slot_extension(self):
        # A half-integer allocation (aligned 1/2 per transmitter) is whole
        # in real streams, in one channel use.
        config, ch, alloc, pre, audit = self.build((2, 2, 3, 1))
        assert pre.v1_j.dtype == np.float64
        assert pre.v1_j.shape == (4, 1)  # 2 m1 real antenna dimensions, one real stream
        assert audit.ranks()[0] == 5  # 2n - j_s = 6 - 1
        assert audit.ranks()[1] == 5  # d1 + d2

    @pytest.mark.parametrize(
        "cfg", [(2, 2, 3, 2), (4, 1, 2, 1), (2, 2, 4, 1), (2, 2, 3, 1), (4, 4, 6, 3)]
    )
    def test_report_matches_recomputation(self, cfg):
        # The set's audit against its quantities recomputed here on real forms
        # built with np.block, ranks by elimination; (2, 2, 3, 1) and
        # (4, 4, 6, 3) have half-integer allocations.
        _, ch, _, pre, audit = self.build(cfg, seed=3)
        h1, h2 = real2(ch.h1), real2(ch.h2)
        legit = np.hstack([h1 @ pre.v1_l, h2 @ pre.v2_l])
        jamming = np.hstack([h1 @ pre.v1_j, h2 @ pre.v2_j])
        assert audit.ranks()[0] == elimination_rank(pre.u)
        assert audit.ranks()[1] == elimination_rank(pre.u @ legit)
        assert audit.zero_forcing_residual == max_abs(pre.u @ jamming)
        eve_jamming = np.hstack([real2(ch.g1) @ pre.v1_j, real2(ch.g2) @ pre.v2_j])
        assert audit.ranks()[2] == elimination_rank(eve_jamming)
        stacks = (np.hstack([pre.v1_l, pre.v1_j]), np.hstack([pre.v2_l, pre.v2_j]))
        assert audit.unitarity_residual == max(
            max_abs(v.conj().T @ v - np.eye(v.shape[1])) for v in stacks
        )

    def test_propagates_infeasibility(self):
        config = AntennaConfig(2, 2, 3, 2)
        alloc = allocate_jamming(AntennaConfig(5, 1, 2, 5))
        rngs = [RngStream(0)]
        ch = sample_channels(config, rngs, EveMode.STATIC)
        with pytest.raises(InfeasibleAllocation):
            build_precoders(ch, alloc, rngs)

    def test_rejects_nonfinite_channel(self):
        # Outside input is checked where it enters the build.
        config = AntennaConfig(2, 2, 3, 2)
        rngs = [RngStream(0)]
        ch = sample_channels(config, rngs, EveMode.STATIC)
        h1 = ch.h1.copy()
        h1[0, 0, 1] = np.nan
        with pytest.raises(InvalidMatrix):
            build_precoders(dataclasses.replace(ch, h1=h1), allocate_jamming(config), rngs)

    def test_precoder_invariants_small_sweep(self):
        # Master seeds 0, 1 and 2 of each config in one stack.
        rngs = [RngStream(seed) for seed in range(3)]
        for m1 in range(1, 4):
            for m2 in range(1, 4):
                for n in range(1, 4):
                    for n_e in range(0, m1 + m2):
                        config = AntennaConfig(m1, m2, n, n_e)
                        ch = sample_channels(config, rngs, EveMode.TIME_VARYING)
                        alloc = allocate_jamming(config)
                        stack = build_precoders(ch, alloc, rngs)
                        audits = _audit(ch, stack)
                        for seed in range(3):
                            pre, audit = member(stack, seed), member(audits, seed)
                            stacked1 = np.hstack([pre.v1_l, pre.v1_j])
                            if stacked1.shape[1]:
                                gram = stacked1.T @ stacked1
                                assert max_abs(gram - np.eye(stacked1.shape[1])) < 1e-9
                            assert max_abs(pre.u @ pre.u - pre.u) < 1e-9
                            assert max_abs(pre.u - pre.u.T) < 1e-12
                            assert audit.ranks()[0] == 2 * n - alloc.j_s
                            assert audit.ranks()[1] == alloc.d_total
                            assert audit.zero_forcing_residual < 1e-8


def _leakage_rank(config, ch, rngs, pre, mode):
    """The one trial's leakage rank in channel use 0 under ``mode``."""
    ranks = leakage_rank(channel_uses(config, ch, rngs, [0], mode), pre)
    assert ranks.shape == (1, 1)
    return ranks[0, 0]


class TestLeakageRank:
    # Ranks count real dimensions: a fully jammed eavesdropper has 2 n_e.
    def test_no_jamming(self):
        config = AntennaConfig(2, 2, 3, 0)
        rngs, ch, pre = _build_one(config, RngStream(0), EveMode.STATIC)
        assert _leakage_rank(config, ch, rngs, pre, EveMode.STATIC) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_aligned_pair_fills_eavesdropper(self, seed):
        config = AntennaConfig(2, 2, 3, 2)
        rngs, ch, pre = _build_one(config, RngStream(seed), EveMode.STATIC)
        assert _leakage_rank(config, ch, rngs, pre, EveMode.STATIC) == 4

    def test_full_allocation(self):
        config = AntennaConfig(5, 1, 2, 5)
        rngs, ch, pre = _build_one(config, RngStream(1), EveMode.STATIC)
        assert _leakage_rank(config, ch, rngs, pre, EveMode.STATIC) == 10

    @pytest.mark.parametrize("cfg", [(1, 1, 1, 1), (2, 2, 3, 1)])
    def test_half_integer_allocation_fully_jams_a_static_eavesdropper(self, cfg):
        # One real aligned stream per transmitter fills both real dimensions
        # of the eavesdropper's one antenna, held fixed or redrawn.
        config = AntennaConfig(*cfg)
        rngs, ch, pre = _build_one(config, RngStream(2))
        assert _leakage_rank(config, ch, rngs, pre, EveMode.TIME_VARYING) == 2
        assert _leakage_rank(config, ch, rngs, pre, EveMode.STATIC) == 2

    def test_static_eavesdropper_is_fully_jammed_at_every_config(self):
        # All 750 configurations with m1, m2, n <= 5 and n_e < m1 + m2, three
        # channel seeds each in one stack.
        rngs = [RngStream(seed) for seed in range(3)]
        short = []
        configs = list(_antenna_grid(5, include_all_ne=False))
        assert len(configs) == 750
        for config in configs:
            alloc = allocate_jamming(config)
            ch = sample_channels(config, rngs, EveMode.STATIC)
            pre = build_precoders(ch, alloc, rngs)
            got = leakage_rank(channel_uses(config, ch, rngs, [0], EveMode.STATIC), pre)
            want = min(2 * config.n_e, alloc.total_streams)
            if (got != want).any():
                short.append((config, got.ravel().tolist(), want))
        assert not short, short[:5]

    def test_rejects_nonfinite_channel(self):
        config = AntennaConfig(2, 2, 3, 2)
        rngs, ch, pre = _build_one(config, RngStream(0), EveMode.STATIC)
        seen = channel_uses(config, ch, rngs, [0], EveMode.STATIC)
        g1 = seen.g1.copy()
        g1[0, 0, 0, 1] = np.nan
        with pytest.raises(InvalidMatrix):
            leakage_rank(dataclasses.replace(seen, g1=g1), pre)

    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (2, 2, 3, 1)])
    def test_default_second_slot_matches_oracle(self, cfg):
        # The static model against test-built real forms of the trial's
        # eavesdropper and the elimination rank.
        config = AntennaConfig(*cfg)
        rngs, ch, pre = _build_one(config, RngStream(8), EveMode.STATIC)
        one, trial = member(pre, 0), member(ch, 0)
        g1, g2 = real2(trial.g1), real2(trial.g2)
        expected = elimination_rank(np.hstack([g1 @ one.v1_j, g2 @ one.v2_j]))
        assert expected == 2 * config.n_e
        assert _leakage_rank(config, ch, rngs, pre, EveMode.STATIC) == expected

    def test_one_rank_per_trial_and_use(self):
        # A stack of trials over several uses: each entry is that trial's
        # rank in that use, the same as built and ranked alone.
        config = AntennaConfig(2, 2, 3, 1)
        rngs, stacked = _trial_stack(config, range(4))
        pre = build_precoders(stacked, allocate_jamming(config), rngs)
        ranks = leakage_rank(channel_uses(config, stacked, rngs, [0, 1, 5], EveMode.TIME_VARYING), pre)
        assert ranks.shape == (4, 3)
        for t, rng in enumerate(rngs):
            alone_rngs, ch, alone = _build_one(config, rng)
            seen = channel_uses(config, ch, alone_rngs, [0, 1, 5], EveMode.TIME_VARYING)
            assert np.array_equal(ranks[t], leakage_rank(seen, alone)[0])
        assert (ranks == 2).all()


def _trial_stack(config, trials, seed=4, mode=EveMode.TIME_VARYING):
    """The trials' RNG streams and their draws, stacked along a leading trial axis."""
    rngs = [RngStream(seed, t) for t in trials]
    return rngs, sample_channels(config, rngs, mode)


def _same_set(a, b):
    """Bit-for-bit equality of two one-trial precoder sets (``member``), report included."""
    matrices = ("v1_l", "v1_j", "v2_l", "v2_j", "u")
    return (
        all(np.array_equal(getattr(a, k), getattr(b, k)) for k in matrices)
        and a.report == b.report
    )



class TestStackedBuild:
    # (4, 1, 2, 1) nullspace, (2, 2, 4, 1) random, (2, 2, 3, 2) aligned,
    # (5, 1, 2, 5) all three, (2, 2, 3, 1) and (4, 4, 6, 3) half-integer
    # counts, (2, 2, 3, 0) no jamming.
    configs = [(4, 1, 2, 1), (2, 2, 4, 1), (2, 2, 3, 2), (5, 1, 2, 5), (2, 2, 3, 1),
               (4, 4, 6, 3), (2, 2, 3, 0)]

    @pytest.mark.parametrize("cfg", configs)
    def test_a_trial_does_not_depend_on_its_stack(self, cfg):
        config = AntennaConfig(*cfg)
        alloc = allocate_jamming(config)
        rngs, stacked = _trial_stack(config, range(7))
        whole = build_precoders(stacked, alloc, rngs)
        whole_audit = _audit(stacked, whole)
        assert len(whole.u) == 7
        assert all(len(values) == 7 for values in dataclasses.astuple(whole.report))
        assert all(len(values) == 7 for values in dataclasses.astuple(whole_audit))
        for part in (range(0, 3), range(3, 7), range(5, 6)):
            sub_rngs, sub = _trial_stack(config, part)
            pre = build_precoders(sub, alloc, sub_rngs)
            audit = _audit(sub, pre)
            for i, t in enumerate(part):
                assert _same_set(member(pre, i), member(whole, t))
                for field in dataclasses.fields(audit):
                    got, want = getattr(audit, field.name)[i], getattr(whole_audit, field.name)[t]
                    assert np.array_equal(got, want), field.name

    @pytest.mark.parametrize("cfg", configs)
    def test_every_trial_meets_the_invariants(self, cfg):
        config = AntennaConfig(*cfg)
        alloc = allocate_jamming(config)
        rngs, stacked = _trial_stack(config, range(5), seed=9)
        whole = build_precoders(stacked, alloc, rngs)
        audits = _audit(stacked, whole)
        for t in range(5):
            pre, audit = member(whole, t), member(audits, t)
            h1, h2 = real2(stacked.h1[t]), real2(stacked.h2[t])
            legit = np.hstack([h1 @ pre.v1_l, h2 @ pre.v2_l])
            assert audit.ranks()[0] == elimination_rank(pre.u) == 2 * config.n - alloc.j_s
            assert audit.ranks()[1] == elimination_rank(pre.u @ legit) == alloc.d_total
            assert audit.zero_forcing_residual < 1e-8

    def test_needs_one_stream_per_trial(self):
        config = AntennaConfig(2, 2, 3, 2)
        rngs, stacked = _trial_stack(config, range(3))
        with pytest.raises(DimensionMismatch):
            build_precoders(stacked, allocate_jamming(config), rngs[:2])

    def test_non_finite_trial_is_named(self):
        config = AntennaConfig(2, 2, 3, 2)
        rngs, stacked = _trial_stack(config, range(4))
        h2 = stacked.h2.copy()
        h2[2, 0, 0] = np.nan
        with pytest.raises(InvalidMatrix, match="stack member 2: h2") as exc:
            build_precoders(dataclasses.replace(stacked, h2=h2), allocate_jamming(config), rngs)
        assert exc.value.member == 2

    def test_rank_deficient_trial_is_named(self):
        # A nullspace block's width is the channel's nullity: a rank-one
        # channel in a stack of generic ones changes it for that trial alone.
        config = AntennaConfig(4, 1, 2, 1)
        rngs, stacked = _trial_stack(config, range(4))
        h1 = stacked.h1.copy()
        h1[3] = np.outer(h1[3][:, 0], h1[3][0])
        with pytest.raises(NumericalFailure, match="stack member 3:") as exc:
            build_precoders(dataclasses.replace(stacked, h1=h1), allocate_jamming(config), rngs)
        assert exc.value.member == 3
