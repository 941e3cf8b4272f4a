import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdoflab import (
    AntennaConfig,
    JammingMethod,
    Regime,
    SDoFValue,
    allocate_jamming,
    audit_allocation,
    classify,
    regime_table,
    sum_sdof,
    upper_bounds,
)

configs = st.builds(
    AntennaConfig,
    m1=st.integers(1, 8),
    m2=st.integers(1, 8),
    n=st.integers(1, 8),
    n_e=st.integers(0, 16),
)


class TestUpperBounds:
    @pytest.mark.parametrize(
        "cfg, expected",
        [
            ((2, 2, 4, 1), (Fraction(3), Fraction(7, 2), Fraction(4))),
            ((1, 1, 1, 0), (Fraction(2), Fraction(1), Fraction(1))),
            ((3, 3, 2, 5), (Fraction(1), Fraction(1, 2), Fraction(2))),
        ],
    )
    def test_hand_values(self, cfg, expected):
        assert upper_bounds(AntennaConfig(*cfg)) == expected


class TestSumSdof:
    @pytest.mark.parametrize(
        "cfg, expected",
        [
            ((2, 2, 3, 2), Fraction(2)),
            ((2, 2, 3, 1), Fraction(5, 2)),
            ((1, 1, 1, 1), Fraction(1, 2)),
            ((1, 1, 4, 2), Fraction(0)),
            ((2, 2, 4, 1), Fraction(3)),
            ((4, 1, 2, 1), Fraction(2)),
            ((5, 1, 2, 5), Fraction(1)),
            ((3, 3, 2, 2), Fraction(2)),
        ],
    )
    def test_hand_values(self, cfg, expected):
        assert sum_sdof(AntennaConfig(*cfg)).as_fraction == expected

    def test_value_type(self):
        value = sum_sdof(AntennaConfig(2, 2, 3, 1))
        assert (value.numerator, value.denominator) == (5, 2)
        assert str(value) == "5/2"
        assert value.value == 2.5

    def test_reduced_form_enforced(self):
        with pytest.raises(ValueError):
            SDoFValue(4, 2)

    @settings(max_examples=300, deadline=None)
    @given(configs)
    def test_symmetry(self, config):
        assert (
            sum_sdof(config).as_fraction
            == sum_sdof(AntennaConfig(config.m2, config.m1, config.n, config.n_e)).as_fraction
        )

    @settings(max_examples=300, deadline=None)
    @given(configs)
    def test_monotone_in_eavesdropper(self, config):
        more = AntennaConfig(config.m1, config.m2, config.n, config.n_e + 1)
        assert sum_sdof(more).as_fraction <= sum_sdof(config).as_fraction

    @settings(max_examples=300, deadline=None)
    @given(configs)
    def test_monotone_in_receiver_and_transmitters(self, config):
        base = sum_sdof(config).as_fraction
        assert sum_sdof(AntennaConfig(config.m1 + 1, config.m2, config.n, config.n_e)).as_fraction >= base
        assert sum_sdof(AntennaConfig(config.m1, config.m2, config.n + 1, config.n_e)).as_fraction >= base

    @settings(max_examples=200, deadline=None)
    @given(configs)
    def test_clamp_and_caps(self, config):
        value = sum_sdof(config).as_fraction
        assert value >= 0
        assert value <= config.n
        if config.n_e >= config.m:
            assert value == 0


class TestHalfUnits:
    # sum_sdof runs in integer half units; the oracle is the closed form
    # written out in Fraction arithmetic.
    GRID = [
        AntennaConfig(m1, m2, n, n_e)
        for m1, m2, n in itertools.product(range(1, 9), repeat=3)
        for n_e in range(m1 + m2 + 2)
    ]

    def test_sum_sdof_matches_the_fraction_closed_form(self):
        for c in self.GRID:
            b2 = Fraction(max(c.m1, c.n) + max(c.m2, c.n) - c.n_e, 2)
            expected = max(Fraction(0), min(Fraction(c.m1 + c.m2 - c.n_e), b2, Fraction(c.n)))
            assert sum_sdof(c).as_fraction == expected, c

    def test_upper_bounds_unchanged(self):
        for c in self.GRID:
            bounds = upper_bounds(c)
            assert bounds == (
                Fraction(c.m1 + c.m2 - c.n_e),
                Fraction(max(c.m1, c.n) + max(c.m2, c.n) - c.n_e, 2),
                Fraction(c.n),
            ), c
            assert all(type(b) is Fraction for b in bounds)


class TestClassify:
    @pytest.mark.parametrize(
        "cfg, regime",
        [
            ((2, 2, 4, 1), Regime.C1),
            ((4, 1, 2, 1), Regime.C3),
            ((2, 2, 3, 1), Regime.C2),
            ((1, 1, 4, 0), Regime.NO_EAVESDROPPER),
            ((1, 1, 4, 2), Regime.ZERO),
        ],
    )
    def test_examples(self, cfg, regime):
        assert classify(AntennaConfig(*cfg)).regime is regime

    def test_transmitter_order_irrelevant(self):
        # the condition list presumes ordered transmitters; classification
        # must relabel internally
        assert classify(AntennaConfig(1, 4, 2, 1)).regime is Regime.C3

    def test_boundary_reported(self):
        label = classify(AntennaConfig(1, 1, 1, 1))
        assert label.matched_condition == "boundary"
        assert label.regime is Regime.C2

    def test_c3_takes_precedence_over_c2(self):
        # both conditions hold here; the receiver bound n is the true value
        config = AntennaConfig(5, 5, 3, 2)
        label = classify(config)
        assert label.regime is Regime.C3
        assert sum_sdof(config).as_fraction == 3


class TestAllocate:
    # Counts are real streams, twice the paper's complex dimensions.
    def test_random_only_region(self):
        alloc = allocate_jamming(AntennaConfig(2, 2, 4, 1))
        assert alloc.total_streams == 2
        methods = {m for m, _ in alloc.tx1 + alloc.tx2}
        assert methods == {JammingMethod.RANDOM}
        assert alloc.j_s == 2
        assert alloc.d_total == 6

    def test_three_method_budget(self):
        alloc = allocate_jamming(AntennaConfig(5, 1, 2, 5))
        assert alloc.method_streams(1, JammingMethod.NULLSPACE) == 6
        assert alloc.method_streams(1, JammingMethod.ALIGNED) == 2
        assert alloc.method_streams(1, JammingMethod.RANDOM) == 0
        assert alloc.method_streams(2, JammingMethod.ALIGNED) == 2
        assert alloc.j_s == 2
        assert alloc.d_total == 2

    def test_half_integer_counts_are_whole_real_streams(self):
        # Half-integer paper counts are whole numbers of real streams.
        alloc = allocate_jamming(AntennaConfig(2, 2, 3, 1))
        assert alloc.method_streams(1, JammingMethod.ALIGNED) == 1
        assert alloc.method_streams(2, JammingMethod.ALIGNED) == 1
        assert alloc.j_s == 1
        assert alloc.d_total == 5

    def test_zero_regime_is_empty(self):
        alloc = allocate_jamming(AntennaConfig(1, 1, 4, 2))
        assert alloc.tx1 == () and alloc.tx2 == ()
        assert alloc.d_total == 0

    def test_no_eavesdropper_uses_no_jamming(self):
        alloc = allocate_jamming(AntennaConfig(3, 2, 4, 0))
        assert alloc.total_streams == 0
        assert alloc.d_total == 8

    def test_single_jamming_symbol_goes_to_larger_transmitter(self):
        alloc = allocate_jamming(AntennaConfig(1, 3, 5, 1))
        assert alloc.streams(2) == 2
        assert alloc.streams(1) == 0

    def test_every_count_is_an_int(self):
        for m1, m2, n in itertools.product(range(1, 9), repeat=3):
            for n_e in range(m1 + m2 + 1):
                alloc = allocate_jamming(AntennaConfig(m1, m2, n, n_e))
                counts = [count for _, count in alloc.tx1 + alloc.tx2]
                counts += [alloc.j_s, alloc.d1, alloc.d2, alloc.total_streams, alloc.d_total]
                counts += [alloc.streams(tx) for tx in (1, 2)]
                counts += [alloc.method_streams(tx, m) for tx in (1, 2) for m in JammingMethod]
                assert all(type(count) is int for count in counts), (m1, m2, n, n_e)


class TestAudit:
    @pytest.mark.parametrize("cfg", [(5, 1, 2, 5), (2, 2, 4, 1), (2, 2, 3, 1), (1, 1, 1, 1)])
    def test_examples_pass(self, cfg):
        config = AntennaConfig(*cfg)
        report = audit_allocation(allocate_jamming(config), config)
        assert report.ok, report.failures()

    def test_occupancy_identity_in_overflow_case(self):
        config = AntennaConfig(5, 1, 2, 5)
        report = audit_allocation(allocate_jamming(config), config)
        names = [c.name for c in report.checks]
        assert "occupancy_identity" in names

    def test_inflated_occupancy_fails_receiver_room(self):
        config = AntennaConfig(2, 2, 4, 1)
        alloc = allocate_jamming(config)
        corrupted = type(alloc)(alloc.tx1, alloc.tx2, alloc.j_s + 1, alloc.d1, alloc.d2)
        report = audit_allocation(corrupted, config)
        assert not report.ok
        assert any(c.name == "receiver_room" for c in report.failures())

    def test_missing_stream_fails_budget(self):
        config = AntennaConfig(2, 2, 4, 1)
        alloc = allocate_jamming(config)
        corrupted = type(alloc)((), (), alloc.j_s, alloc.d1, alloc.d2)
        report = audit_allocation(corrupted, config)
        assert any(c.name == "stream_budget" for c in report.failures())


class TestRegimeTable:
    def test_minimal_table(self):
        rows = regime_table(1)
        values = {cfg.n_e: val.as_fraction for cfg, _, val in rows}
        assert values == {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(0)}

    def test_small_table_row(self):
        rows = {(c.m1, c.m2, c.n, c.n_e): v for c, _, v in regime_table(2)}
        assert rows[(2, 1, 1, 1)].as_fraction == 1

    def test_row_count_and_receiver_cap(self):
        max_antennas = 3
        rows = regime_table(max_antennas)
        expected = sum(
            m1 + m2 + 1
            for m1 in range(1, max_antennas + 1)
            for m2 in range(1, max_antennas + 1)
        ) * max_antennas
        assert len(rows) == expected
        assert all(value.as_fraction <= config.n for config, _, value in rows)

    @pytest.mark.parametrize("max_antennas", [0, -1, 2.5, True, "3"])
    def test_the_cap_is_a_positive_integer(self, max_antennas):
        with pytest.raises(ValueError, match="max_antennas must be an integer of at least 1"):
            regime_table(max_antennas)

    def test_all_allocations_audit_clean_up_to_six(self):
        for config, _, _ in regime_table(6):
            report = audit_allocation(allocate_jamming(config), config)
            assert report.ok, (config, report.failures())


class TestAntennaConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AntennaConfig(0, 1, 1, 0)
        with pytest.raises(ValueError):
            AntennaConfig(1, 1, 1, -1)
        with pytest.raises(ValueError):
            AntennaConfig(True, 1, 1, 0)
        with pytest.raises(ValueError):
            AntennaConfig(1, 1, 2.0, 0)

    def test_total(self):
        assert AntennaConfig(3, 4, 2, 0).m == 7
