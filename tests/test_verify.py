"""The family walk of ``verify``: its premise, its equivalence to one build per config, and its call counts.

``check_precoders`` walks the precoder grid one (m1, m2, n) family at a
time: one legitimate draw and one set of draw factors serve every n_e of
the family.  These tests pin why that is sound (the legitimate draw does
not depend on n_e), that every family-built set is bit for bit the set a
build on the configuration's own draw makes, and that no work is kept
from one call to the next or done twice within one.
"""

import collections
import dataclasses
import itertools

import numpy as np
import pytest

from sdoflab import (
    AntennaConfig,
    EveMode,
    JammingMethod,
    RngStream,
    allocate_jamming,
    build_precoders,
    sample_channels,
    sdof,
    verify,
)
from sdoflab.channel import TrialSeeds
from sdoflab.precoding import DrawFactors, audit_set

MODES = [EveMode.STATIC, EveMode.TIME_VARYING]


def _family(m1, m2, n):
    """The precoder grid's configurations of one family: n_e = 0 .. m1 + m2 - 1."""
    return [AntennaConfig(m1, m2, n, n_e) for n_e in range(m1 + m2)]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFamilyPremise:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("m1", range(1, 6))
    def test_legitimate_draw_does_not_depend_on_n_e(self, m1, mode):
        rngs = [RngStream(seed) for seed in (0, 1, 2)]
        for m2, n in itertools.product(range(1, 6), repeat=2):
            first, *rest = (sample_channels(c, rngs, mode) for c in _family(m1, m2, n))
            for draw in rest:
                assert _same_bits(draw.h1, first.h1), (m1, m2, n)
                assert _same_bits(draw.h2, first.h2), (m1, m2, n)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("trials", [1, 9])  # below and above the batch-hash threshold
    def test_trial_seeds_draw_as_sample_channels(self, trials, mode):
        rngs = [RngStream(40 + t, (t, 0)) for t in range(trials)]
        seeds = TrialSeeds(rngs, mode)
        for config in _family(3, 2, 4):
            draw = sample_channels(config, rngs, mode)
            g1, g2 = seeds.eavesdropper(config)
            assert _same_bits(g1, draw.g1) and _same_bits(g2, draw.g2), config


class TestFamilyBuilds:
    FAMILIES = [(3, 3, 4), (5, 1, 2), (2, 2, 3)]

    def test_families_cover_every_jamming_method(self):
        methods = {
            method
            for family in self.FAMILIES
            for config in _family(*family)
            for method, _ in allocate_jamming(config).tx1 + allocate_jamming(config).tx2
        }
        assert methods == set(JammingMethod)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_set_is_the_build_on_its_own_draw(self, family):
        configs = _family(*family)
        rngs, seeds = verify._seed_streams(3)
        allocs = {config: allocate_jamming(config) for config in configs}
        built = list(verify._family_builds(configs, rngs, allocs, seeds))
        assert [config for config, _, _, _ in built] == configs
        for config, draw, factors, pre in built:
            own = sample_channels(config, rngs, EveMode.STATIC)
            for name in ("h1", "h2", "g1", "g2"):
                assert _same_bits(getattr(draw, name), getattr(own, name)), (config, name)
            alone = build_precoders(own, allocs[config], rngs)
            for field in dataclasses.fields(pre):
                if field.name != "report":
                    got, want = getattr(pre, field.name), getattr(alone, field.name)
                    assert _same_bits(got, want), (config, field.name)
            for field in dataclasses.fields(pre.report):
                got, want = getattr(pre.report, field.name), getattr(alone.report, field.name)
                assert _same_bits(got, want), (config, field.name)
            audit, alone_audit = audit_set(factors, pre), audit_set(DrawFactors(own), alone)
            for field in dataclasses.fields(audit):
                got, want = getattr(audit, field.name), getattr(alone_audit, field.name)
                assert _same_bits(got, want), (config, field.name)

    def test_check_config_is_the_family_walk_at_one_n_e(self, monkeypatch):
        walked = []
        real = verify._family_builds

        def recording(configs, *args):
            walked.append(list(configs))
            return real(configs, *args)

        monkeypatch.setattr(verify, "_family_builds", recording)
        config = AntennaConfig(3, 3, 4, 2)
        result = verify.check_config(config, 2)
        assert walked == [[config]]
        family = _family(3, 3, 4)
        allocs = {c: allocate_jamming(c) for c in family}
        whole = dict(verify._family_checks(family, *verify._seed_streams(2), allocs))
        assert whole[config] == result


def test_nothing_outlives_a_call(monkeypatch):
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("build_precoders", "audit_set", "sample_channels", "allocate_jamming"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    calls = []
    for _ in range(2):
        counts.clear()
        assert verify.run_verification(2, 2)["passed"]
        calls.append(dict(counts))
    # Up to two antennas: 8 families, 24 precoder configurations, each built
    # and audited once, and 32 configurations in the full grid, every call.
    assert calls[0] == calls[1] == {
        "build_precoders": 24, "audit_set": 24, "sample_channels": 8, "allocate_jamming": 32
    }


def test_each_configuration_is_classified_once_per_call(monkeypatch):
    # The regime table's labels serve the theory checks and the audits alike.
    calls = collections.Counter()
    real = sdof.classify

    def counting(config):
        calls[config] += 1
        return real(config)

    monkeypatch.setattr(sdof, "classify", counting)
    assert verify.run_verification(2, 1)["passed"]
    assert len(calls) == 32 and set(calls.values()) == {1}
