import hashlib
import itertools

import numpy as np
import pytest

from helpers import count_generators, crandn, elimination_rank, member, real2, seed_sequence_eavesdropper
from sdoflab import (
    AntennaConfig,
    ChannelRealization,
    EveMode,
    InvalidMatrix,
    RngStream,
    SignalParams,
    sample_channels,
)
from sdoflab import channel
from sdoflab.channel import (
    TrialNormals,
    _normals,
    _seed_words,
    channel_uses,
    draw_lengths,
    real_form,
)

# SHA-256 of _draw_digest() below: the channel stream every Monte Carlo result rests on.
DRAW_DIGEST = "f520ace6410f421bf4687d509066e2cdc2f036535c4a194f7ce498abdd322127"
# The same over the static-mode draws alone: a change to the time-varying
# eavesdropper leaves it as it is.
STATIC_DRAW_DIGEST = "372f83d859dfcccc8cfbd0d7023aa29289c427d9cf2b1f6691562fc76629c42f"


def _draw(config, rng, mode):
    """The draw at one stream, as a stack of one, and its member: (stack, matrices)."""
    stack = sample_channels(config, [rng], mode)
    return stack, member(stack, 0)


def _use(config, trial_stack, rng, use, mode):
    """The matrices one trial's set sees in channel use ``use``: ``channel_uses`` on a stack of one."""
    seen = channel_uses(config, trial_stack, [rng], [use], mode)
    return ChannelRealization(seen.h1[0], seen.h2[0], seen.g1[0, 0], seen.g2[0, 0])


def _stream(rng, domain, length):
    """The first ``length`` normals of ``rng``'s address in ``domain``, as the library's draws read them."""
    words = _seed_words(rng.master_seed, [(domain, rng.trial)])
    return _normals(words, 1, length)[0]


class TestRngStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(3, -1)
        # The seed hash casts to uint64: a float or a bool would silently
        # seed the integer it truncates to.
        for seed, trial in ((2.5, 0), (True, 0), (np.True_, 0), (3, 1.5), (3, 2.0), (3, False)):
            with pytest.raises(ValueError, match="64-bit nonnegative integer"):
                RngStream(seed, trial)
        # NumPy integers are integers.
        assert _stream(RngStream(np.uint64(3), np.int64(1)), 0, 8).tobytes() == (
            _stream(RngStream(3, 1), 0, 8).tobytes()
        )

    def test_same_address_same_draws(self):
        a = _stream(RngStream(42, 5), 0, 8)
        b = _stream(RngStream(42, 5), 0, 8)
        assert np.array_equal(a, b)

    def test_components_fit_64_bits(self):
        RngStream(2**64 - 1, 2**64 - 1)
        with pytest.raises(ValueError):
            RngStream(3, 2**64)
        with pytest.raises(ValueError):
            RngStream(2**64, 3)

    def test_domains_are_distinct(self):
        a = _stream(RngStream(42, 5), 0, 8)
        b = _stream(RngStream(42, 5), 1, 8)
        assert not np.array_equal(a, b)


class TestSampleChannels:
    def test_shapes_and_rank(self):
        config = AntennaConfig(2, 2, 3, 2)
        ch = sample_channels(config, [RngStream(1)], EveMode.STATIC)
        assert ch.h1.shape == (1, 3, 2)
        assert ch.h2.shape == (1, 3, 2)
        assert ch.g1.shape == (1, 2, 2)
        assert elimination_rank(ch.h1[0]) == 2

    def test_no_eavesdropper_gives_empty_g(self):
        ch = sample_channels(AntennaConfig(2, 1, 2, 0), [RngStream(1)], EveMode.STATIC)
        assert ch.g1.shape == (1, 0, 2)

    @pytest.mark.parametrize("n_e, per_trial", [(0, [1, 0, 0]), (1, [2, 16, 1])])
    def test_an_absent_eavesdropper_seeds_no_generator(self, n_e, per_trial, monkeypatch):
        # Generators made per trial by the draw, by 17 channel uses (use 0
        # is the trial's own eavesdropper, drawn once) and by the eavesdropper
        # rows of TrialNormals: with n_e = 0 only the legitimate draw seeds one.
        made = count_generators(monkeypatch)
        config, mode = AntennaConfig(2, 2, 3, n_e), EveMode.TIME_VARYING
        rngs = [RngStream(5, t) for t in range(12)]
        counts = [0]
        draws = sample_channels(config, rngs, mode)
        counts.append(len(made))
        seen = channel_uses(config, draws, rngs, range(17), mode)
        counts.append(len(made))
        channel.TrialNormals.draw(rngs, mode, eve=draw_lengths(config)[1]).eavesdropper(config)
        counts.append(len(made))
        assert np.diff(counts).tolist() == [12 * k for k in per_trial]
        assert seen.g1.shape == (12, 17, n_e, 2) and seen.g2.shape == (12, 17, n_e, 2)

    def test_determinism(self):
        config = AntennaConfig(3, 2, 4, 1)
        first = sample_channels(config, [RngStream(9, 2)], EveMode.STATIC)
        second = sample_channels(config, [RngStream(9, 2)], EveMode.STATIC)
        assert np.array_equal(first.h1, second.h1)
        assert np.array_equal(first.g2, second.g2)

    def test_legit_static_across_uses_eve_varies(self):
        config, rngs, mode = AntennaConfig(2, 2, 3, 2), [RngStream(7)], EveMode.TIME_VARYING
        draw = sample_channels(config, rngs, mode)
        seen = channel_uses(config, draw, rngs, [0, 1], mode)
        assert np.array_equal(seen.h1, draw.h1)
        assert not np.array_equal(seen.g1[:, 0], seen.g1[:, 1])

    def test_empirical_moments(self):
        # pool ~1e5 entries from one large draw
        config = AntennaConfig(220, 230, 222, 0)
        ch = sample_channels(config, [RngStream(123)], EveMode.STATIC)
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
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SignalParams([1.0, -1.0, 2.0])  # every grid point is checked
        with pytest.raises(ValueError, match="1-D grid"):
            SignalParams([[1.0, 2.0]])

    def test_from_db(self):
        assert SignalParams.from_db(30.0).p == pytest.approx(1000.0)
        with pytest.raises(ValueError, match="power 3090.0 dB is past the float range"):
            SignalParams.from_db([60.0, 3090.0])
        # A grid's powers are byte for byte those of one level at a time.
        grid = [60.0 + 2.5 * i for i in range(17)]
        sig = SignalParams.from_db(grid, alpha=0.3)
        assert sig.alpha == 0.3
        assert sig.p.dtype == np.float64 and sig.p.shape == (17,)
        assert sig.p.tobytes() == np.array([SignalParams.from_db(p).p for p in grid]).tobytes()


class TestRealForm:
    def test_matches_the_block_oracle(self):
        gen = np.random.default_rng(3)
        stack = np.stack([crandn(gen, 2, 3) for _ in range(4)]).reshape(2, 2, 2, 3)
        out = real_form(stack, "g1")
        assert out.dtype == np.float64 and out.shape == (2, 2, 4, 6)
        for t in range(2):
            for k in range(2):
                assert np.array_equal(out[t, k], real2(stack[t, k]))

    def test_maps_real_and_imaginary_parts(self):
        # [Re y; Im y] = real_form(H) [Re x; Im x] for y = H x.
        gen = np.random.default_rng(4)
        h, x = crandn(gen, 3, 2), crandn(gen, 2, 1)
        y = h @ x
        out = real_form(h[None], "h1")[0] @ np.vstack([x.real, x.imag])
        assert np.allclose(out, np.vstack([y.real, y.imag]), atol=1e-14)

    def test_non_finite_entry_names_its_trial(self):
        # The member is the trial (first axis), whatever axes follow it.
        stack = np.ones((3, 4, 2, 2), dtype=complex)
        stack[2, 3, 1, 0] = np.inf
        with pytest.raises(InvalidMatrix, match="stack member 2: g1 contains non-finite") as exc:
            real_form(stack, "g1")
        assert exc.value.member == 2

    def test_empty_stack_is_rejected(self):
        with pytest.raises(InvalidMatrix, match="h1 is an empty stack"):
            real_form(np.zeros((0, 3, 2), dtype=complex), "h1")


class TestChannelUse:
    """One trial's ``channel_uses`` against oracles drawn here with NumPy's SeedSequence."""

    config = AntennaConfig(2, 2, 3, 2)
    seed, trial = 7, 3

    def trial_draw(self, mode):
        """The trial's stream, its draw as a stack of one, and that draw's matrices."""
        rng = RngStream(self.seed, self.trial)
        return (rng, *_draw(self.config, rng, mode))

    def draw_at(self, address):
        """The eavesdropper (g1, g2) at spawn key (1, trial, address), drawn without the library."""
        return seed_sequence_eavesdropper(self.config, self.seed, (1, self.trial, address))

    def seen(self, mode, use):
        rng, stack, _ = self.trial_draw(mode)
        return _use(self.config, stack, rng, use, mode)

    @pytest.mark.parametrize("use", [0, 1, 4])
    def test_time_varying_slot_s_of_use_k_is_the_draw_at_2k_plus_s(self, use):
        # A use has one slot, s = 0, at the even address 2k: the odd
        # address 2k + 1 is never drawn, and use k + 1 is at 2k + 2.
        seen = self.seen(EveMode.TIME_VARYING, use)
        after = self.seen(EveMode.TIME_VARYING, use + 1)
        ne, m1, m2 = self.config.n_e, self.config.m1, self.config.m2
        (a1, a2), (skipped, _), (b1, b2) = (self.draw_at(2 * use + s) for s in range(3))
        assert np.array_equal(seen.g1, a1) and np.array_equal(seen.g2, a2)
        assert np.array_equal(after.g1, b1) and np.array_equal(after.g2, b2)
        assert seen.g1.shape == (ne, m1) and seen.g2.shape == (ne, m2)
        assert not np.array_equal(skipped, seen.g1) and not np.array_equal(skipped, after.g1)

    def test_slot_a_of_use_0_is_the_trial_draw(self):
        _, _, trial = self.trial_draw(EveMode.TIME_VARYING)
        seen = self.seen(EveMode.TIME_VARYING, 0)
        assert np.array_equal(seen.g1, trial.g1) and np.array_equal(seen.g2, trial.g2)
        assert np.array_equal(seen.g1, self.draw_at(0)[0])

    @pytest.mark.parametrize("use", [0, 2])
    def test_static_slots_carry_the_trial_eavesdropper(self, use):
        _, _, trial = self.trial_draw(EveMode.STATIC)
        seen = self.seen(EveMode.STATIC, use)
        assert np.array_equal(seen.g1, trial.g1)
        assert np.array_equal(seen.g2, trial.g2)

    @pytest.mark.parametrize("mode", list(EveMode))
    def test_legitimate_blocks_hold_the_trial_draw(self, mode):
        _, _, trial = self.trial_draw(mode)
        seen = self.seen(mode, 3)
        assert np.array_equal(seen.h1, trial.h1)
        assert np.array_equal(seen.h2, trial.h2)

    # From use 2**31 on, the address 2k takes two words of the seed hash.
    @pytest.mark.parametrize("use", [0, 3, 2**31 + 5])
    def test_single_slot_use_k_is_the_draw_at_2k(self, use):
        _, _, trial = self.trial_draw(EveMode.TIME_VARYING)
        seen = self.seen(EveMode.TIME_VARYING, use)
        g1, g2 = self.draw_at(2 * use)
        assert np.array_equal(seen.h1, trial.h1) and np.array_equal(seen.h2, trial.h2)
        assert np.array_equal(seen.g1, g1) and np.array_equal(seen.g2, g2)

    @pytest.mark.parametrize("uses", [[], [2, 1], [1, 1], [-1, 0], [2**63]])
    def test_uses_are_increasing_addresses(self, uses):
        # Use k is drawn at address 2k: from use 2**63 on that is past 64 bits.
        rng, stack, _ = self.trial_draw(EveMode.TIME_VARYING)
        with pytest.raises(ValueError, match="uses must be a nonempty, strictly increasing"):
            channel_uses(self.config, stack, [rng], uses, EveMode.TIME_VARYING)


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


def _key_array(keys, pad=0):
    """Spawn keys of lengths 2 and 3 as ``_seed_words`` takes them: (K, 3) rows and the lengths.

    ``pad`` fills a row past its key's end.
    """
    rows = np.array([k + (pad,) * (3 - len(k)) for k in keys], np.uint64).reshape(-1, 3)
    return rows, [len(k) for k in keys]


class TestSeedWords:
    """The array-keyed hash against NumPy's own SeedSequence."""

    masters = [0, 2**32 - 1, 2**32, 2**64 - 1, 12_345, 2**40 + 17, 9_876_543_210_123_456_789]
    counts = [1, 7, 8, 40]

    @pytest.mark.parametrize("master", masters)
    @pytest.mark.parametrize("count", counts)
    def test_matches_seed_sequence(self, master, count):
        keys = _keys(count, seed=count + master % 1000)
        assert np.array_equal(_seed_words(master, *_key_array(keys)), _seed_sequence_words(master, keys))

    @pytest.mark.parametrize("length", [2, 3])
    def test_every_component_in_every_place(self, length):
        # Every key of _COMPONENTS of this length, in one batch: each component
        # one or two words wide, after components of either width.
        keys = list(itertools.product(_COMPONENTS, repeat=length))
        got = _seed_words(2**33 + 1, np.array(keys, np.uint64))
        assert np.array_equal(got, _seed_sequence_words(2**33 + 1, keys))

    def test_entries_past_a_key_are_not_read(self):
        keys = _keys(40, seed=5)
        ones = _seed_words(3, *_key_array(keys, pad=2**64 - 1))
        assert np.array_equal(ones, _seed_words(3, *_key_array(keys)))
        assert np.array_equal(ones, _seed_sequence_words(3, keys))

    @pytest.mark.parametrize("length", [2, 3])
    def test_a_master_seed_per_key(self, length):
        gen = np.random.default_rng(length)
        keys = gen.integers(0, 2**63, size=(25, length), dtype=np.uint64)
        keys[::4, -1] = np.uint64(2**64 - 1)
        keys[1::4, 0] = 5
        masters = gen.integers(0, 2**63, size=25, dtype=np.uint64)
        masters[0] = 2**64 - 1
        got = _seed_words(masters, keys)
        for m, k, words in zip(masters.tolist(), keys.tolist(), got):
            assert np.array_equal(words, _seed_sequence_words(m, [k])[0])

    @pytest.mark.parametrize("count", counts)
    def test_streams_draw_as_seed_sequence_ones(self, count):
        keys = _keys(count, seed=99)
        masters = [(3 * i) << 33 for i in range(count)]
        drawn = _normals(_seed_words(np.array(masters, np.uint64), *_key_array(keys)), count, 6)
        for m, k, z in zip(masters, keys, drawn):
            oracle = np.random.default_rng(np.random.SeedSequence(entropy=m, spawn_key=k))
            assert np.array_equal(z, oracle.standard_normal(6))

    def test_no_keys_hash_nothing(self):
        assert _seed_words(7, np.empty((0, 3), np.uint64)).shape == (0, 4)


class TestTrialNormals:
    """Each row is its address's stream alone, and a shorter row is a prefix of a longer one."""

    @pytest.mark.parametrize("mode", list(EveMode))
    @pytest.mark.parametrize("count", [1, 11])
    def test_rows_match_each_stream_alone(self, count, mode):
        # Domain keys: legitimate (0, trial), eavesdropper (1, trial) or,
        # when time-varying, (1, trial, 0) of its channel use 0, jamming (2, trial).
        rngs = [RngStream(8, t) for t in range(count)]
        rows = TrialNormals.draw(rngs, mode, 5, 7, 9)
        for t, rng in enumerate(rngs):
            alone = TrialNormals.draw([rng], mode, 5, 7, 9)
            eve_key = (1, t, 0) if mode.varies_per_use else (1, t)
            for name, key in (("legit", (0, t)), ("eve", eve_key), ("jamming", (2, t))):
                row = getattr(rows, name)[t]
                oracle = np.random.default_rng(np.random.SeedSequence(8, spawn_key=key))
                assert np.array_equal(row, getattr(alone, name)[0]), name
                assert np.array_equal(row, oracle.standard_normal(len(row))), name

    @pytest.mark.parametrize("count", [1, 11])
    def test_shorter_rows_are_prefixes_of_longer_ones(self, count):
        rngs = [RngStream(11, t) for t in range(count)]
        short = TrialNormals.draw(rngs, EveMode.STATIC, 4, 1, 6)
        long = TrialNormals.draw(rngs, EveMode.STATIC, 90, 33, 140)
        for name in ("legit", "eve", "jamming"):
            got, longer = getattr(short, name), getattr(long, name)
            assert np.array_equal(got, longer[:, : got.shape[1]]), name

    def test_an_empty_domain_seeds_nothing(self, monkeypatch):
        made = count_generators(monkeypatch)
        rngs = [RngStream(3, t) for t in range(9)]
        normals = TrialNormals.draw(rngs, EveMode.STATIC, legit=4, jamming=2)
        assert len(made) == 2 * len(rngs) and normals.eve.shape == (len(rngs), 0)

    def test_no_streams_seed_nothing(self, monkeypatch):
        made = count_generators(monkeypatch)
        normals = TrialNormals.draw([], EveMode.TIME_VARYING, 4, 3, 2)
        assert made == [] and normals.legit.shape == (0, 4) and normals.jamming.shape == (0, 2)

    def test_a_draw_reads_the_prefix_it_needs(self):
        config = AntennaConfig(3, 2, 4, 2)
        rngs = [RngStream(6, t) for t in range(3)]
        drawn = TrialNormals.draw(rngs, EveMode.STATIC, 100, 90).channels(config)
        own = sample_channels(config, rngs, EveMode.STATIC)
        for name in ("h1", "h2", "g1", "g2"):
            assert np.array_equal(getattr(drawn, name), getattr(own, name)), name
        with pytest.raises(ValueError, match="normals per row"):
            TrialNormals.draw(rngs, EveMode.STATIC, 10, 90).channels(config)


class TestStackedDraws:
    """Stacked draws equal the per-address calls member by member, for one trial and for a stack."""

    @pytest.mark.parametrize("mode", list(EveMode))
    @pytest.mark.parametrize("trials", [1, 3, 10])
    @pytest.mark.parametrize("cfg", [(2, 2, 3, 2), (3, 2, 4, 1), (2, 1, 2, 0)])
    def test_sample_channels(self, cfg, trials, mode):
        config = AntennaConfig(*cfg)
        rngs = [RngStream(2**40 + 3, 2**32 + t) for t in range(trials)]
        stacked = sample_channels(config, rngs, mode)
        for i, rng in enumerate(rngs):
            _, alone = _draw(config, rng, mode)
            for name in ("h1", "h2", "g1", "g2"):
                assert np.array_equal(getattr(stacked, name)[i], getattr(alone, name))

    @pytest.mark.parametrize("mode", list(EveMode))
    @pytest.mark.parametrize("offset", [1, 2])
    @pytest.mark.parametrize("trials", [1, 9])
    def test_channel_uses(self, trials, offset, mode):
        # Offset 1 runs uses 0, 1 and 4, starting with the trial draw; offset
        # 2 runs uses 1, 2 and 5, all fresh draws.
        config = AntennaConfig(3, 2, 4, 2)
        rngs = [RngStream(17, t) for t in range(trials)]
        draws = sample_channels(config, rngs, mode)
        uses = [offset - 1, offset, offset + 3]
        seen = channel_uses(config, draws, rngs, uses, mode)
        # A static eavesdropper's use axis has length 1 and holds over every use.
        assert seen.g1.shape[1] == (len(uses) if mode.varies_per_use else 1)
        for i, rng in enumerate(rngs):
            trial, _ = _draw(config, rng, mode)
            for j, use in enumerate(uses):
                alone = _use(config, trial, rng, use, mode)
                at = j if mode.varies_per_use else 0
                g1, g2 = seen.g1[i, at], seen.g2[i, at]
                assert np.array_equal(seen.h1[i], alone.h1) and np.array_equal(seen.h2[i], alone.h2)
                assert np.array_equal(g1, alone.g1) and np.array_equal(g2, alone.g2)


def _draw_digest(modes=tuple(EveMode)) -> str:
    """SHA-256 over trial draws and channel uses for fixed seeds, in each of ``modes``."""
    digest = hashlib.sha256()
    for cfg in ((2, 2, 3, 1), (3, 2, 4, 2), (2, 1, 2, 0)):
        config = AntennaConfig(*cfg)
        for seed, trial in ((0, 0), (11, 4)):
            for mode in modes:
                rng = RngStream(seed, trial)
                stack, trial_ch = _draw(config, rng, mode)
                seen = [_use(config, stack, rng, use, mode) for use in (0, 1, 3)]
                for ch in (trial_ch, *seen):
                    for mat in (ch.h1, ch.h2, ch.g1, ch.g2):
                        digest.update(repr(mat.shape).encode())
                        digest.update(np.ascontiguousarray(mat).tobytes())
    return digest.hexdigest()


def test_draws_are_pinned_bit_for_bit():
    # Any change to how channels are drawn (call order, sizes, scaling)
    # moves every Monte Carlo result; this pins the stream.
    assert _draw_digest() == DRAW_DIGEST


def test_static_draws_are_pinned_bit_for_bit():
    assert _draw_digest((EveMode.STATIC,)) == STATIC_DRAW_DIGEST
