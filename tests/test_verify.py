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
import hashlib
import itertools
import json
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

from helpers import count_generators, no_children
from sdoflab import (
    AntennaConfig,
    EveMode,
    InfeasibleAllocation,
    JammingMethod,
    RngStream,
    allocate_jamming,
    build_precoders,
    sample_channels,
    sdof,
    verify,
)
from sdoflab.channel import TrialNormals, draw_lengths
from sdoflab.precoding import DrawFactors, audit_set

MODES = [EveMode.STATIC, EveMode.TIME_VARYING]

# SHA-256 of the JSON of run_verification(5, 1) then run_verification(5, 3):
# every verdict, message and worst residual of the report, bit for bit.
VERIFY_REPORT_DIGEST = "ec86961b740625308e57566b3fb05c3064f1bd9c1b94ea96be4c94df315e1010"


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
    def test_trial_normals_draw_as_sample_channels(self, trials, mode):
        # Rows as long as the family's longest draw serve every n_e of it.
        rngs = [RngStream(40 + t, t) for t in range(trials)]
        family = _family(3, 2, 4)
        normals = TrialNormals.draw(rngs, mode, *draw_lengths(family[-1]))
        for config in family:
            draw = sample_channels(config, rngs, mode)
            g1, g2 = normals.eavesdropper(config)
            assert _same_bits(g1, draw.g1) and _same_bits(g2, draw.g2), config
            whole = normals.channels(config)
            for name in ("h1", "h2", "g1", "g2"):
                assert _same_bits(getattr(whole, name), getattr(draw, name)), (config, name)


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
        allocs = {config: allocate_jamming(config) for config in configs}
        rngs, seeds = verify._seed_streams(3, allocs)
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
            audit, alone_audit = audit_set(factors, pre, draw), audit_set(DrawFactors(own), alone, own)
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
        whole = dict(verify._checks([family], *verify._seed_streams(2, allocs), allocs)[0])
        assert whole[config] == result


def test_nothing_outlives_a_call(monkeypatch):
    # The walk runs in this process, where the counters are.
    monkeypatch.setattr(verify, "usable_cpus", lambda: 1)
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("build_precoders", "audit_set", "ranks", "allocate_jamming"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    monkeypatch.setattr(TrialNormals, "channels", counting("channels", TrialNormals.channels))
    made = count_generators(monkeypatch)
    calls = []
    for _ in range(2):
        counts.clear()
        made.clear()
        assert verify.run_verification(2, 2)["passed"]
        calls.append(dict(counts, generators=len(made)))
    # Up to two antennas: 8 families, each drawing its channels once; 24
    # precoder configurations, each built and audited once, their ranks
    # decided in one call per distinct shape of rank matrix; 32
    # configurations in the full grid; and one legitimate, eavesdropper
    # and jamming stream per seed, every call.
    assert calls[0] == calls[1] == {
        "build_precoders": 24,
        "audit_set": 24,
        "ranks": 8,
        "channels": 8,
        "allocate_jamming": 32,
        "generators": 3 * 2,
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


def test_verify_report_is_pinned():
    digest = hashlib.sha256()
    for seeds in (1, 3):
        digest.update(json.dumps(verify.run_verification(5, seeds), indent=2).encode())
    assert digest.hexdigest() == VERIFY_REPORT_DIGEST


GRID = list(sdof._antenna_grid(verify.PRECODER_ANTENNA_CAP, include_all_ne=False))


def _grid_allocs():
    return {config: allocate_jamming(config) for config in GRID}


def zero_legit_at(monkeypatch, config, after=None):
    """Make ``config``'s legitimate rank matrix zero; return the list of configs audited in this process.

    The configuration being audited is the one its family walk last
    yielded, so the fault lands on ``config`` in worker processes too.
    With ``after``, a path, the fault waits (up to a minute) until that
    file exists.
    """
    audited = []
    real_builds, real_audit = verify._family_builds, verify.audit_set

    def builds(*args):
        for built in real_builds(*args):
            audited.append(built[0])
            yield built

    def audit(factors, pre, draw):
        result = real_audit(factors, pre, draw)
        if audited[-1] == config:
            deadline = time.monotonic() + 60
            while after is not None and not after.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            zero = np.zeros_like(result.legit_post_projection)
            result = dataclasses.replace(result, legit_post_projection=zero)
        return result

    monkeypatch.setattr(verify, "_family_builds", builds)
    monkeypatch.setattr(verify, "audit_set", audit)
    return audited


def refuse_build_at(monkeypatch, config, allocs, marker=None):
    """Make the build of ``config`` (its allocation in ``allocs``) raise; it first creates ``marker``, a path, if given."""
    real = verify.build_precoders

    def build(draws, alloc, rngs, **shared):
        if alloc is allocs[config]:
            if marker is not None:
                marker.touch()
            raise InfeasibleAllocation("refused")
        return real(draws, alloc, rngs, **shared)

    monkeypatch.setattr(verify, "build_precoders", build)


class TestBatchedRanks:
    """The walk decides queued ranks in batches but judges, and stops, in walk order."""

    FAILING = AntennaConfig(1, 2, 2, 1)  # a configuration with legitimate streams
    LATER = AntennaConfig(1, 2, 2, 2)  # the next one of its family

    def test_a_rank_mismatch_is_the_line_reported(self, monkeypatch):
        # The walk runs in this process, where ``audited`` fills.
        monkeypatch.setattr(verify, "usable_cpus", lambda: 1)
        audited = zero_legit_at(monkeypatch, self.FAILING)
        allocs = _grid_allocs()
        result = verify.check_precoders(5, 1, allocs)
        at = GRID.index(self.FAILING)
        want = allocs[self.FAILING].d_total
        assert not result.passed
        assert result.detail == f"{self.FAILING} seed 0: legit rank 0 != {want}"
        # Configurations past the failing one were queued in its batch, but
        # the worst residual covers only those walked up to it.
        assert len(audited) > at + 1
        walked = [verify.check_config(config, 1)[0] for config in GRID[: at + 1]]
        assert result.worst_residual == max(max(worst.values()) for worst in walked)

    def test_an_earlier_failure_outranks_a_later_build_error(self, monkeypatch):
        allocs = _grid_allocs()
        refuse_build_at(monkeypatch, self.LATER, allocs)
        with pytest.raises(InfeasibleAllocation, match=re.escape(f"{self.LATER} seed 0: refused")):
            verify.check_precoders(5, 1, allocs)
        zero_legit_at(monkeypatch, self.FAILING)
        result = verify.check_precoders(5, 1, allocs)
        assert result.detail.startswith(f"{self.FAILING} seed 0: legit rank 0")


def test_the_rank_queue_stays_small(monkeypatch):
    # The queue is decided at a family boundary once it passes its bound,
    # so a many-seed walk holds about one family's rank matrices.  The walk
    # runs in this process, whose allocations tracemalloc sees.
    monkeypatch.setattr(verify, "usable_cpus", lambda: 1)
    allocs = _grid_allocs()
    tracemalloc.start()
    try:
        assert verify.check_precoders(5, 20, allocs).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


class TestWorkerPool:
    """The family walk split over forked worker processes reads as the one-process walk."""

    FAILING = TestBatchedRanks.FAILING

    @pytest.fixture
    def forks(self, forks, monkeypatch):
        """Run the walk on 2 workers whatever the host; return the list of forks made."""
        monkeypatch.setattr(verify, "usable_cpus", lambda: 2)
        return forks

    def test_reports_do_not_depend_on_the_worker_count(self, monkeypatch):
        reports = {}
        for workers in (1, 2):
            monkeypatch.setattr(verify, "usable_cpus", lambda: workers)
            reports[workers] = [json.dumps(verify.run_verification(5, seeds), indent=2) for seeds in (1, 3)]
        assert reports[1] == reports[2]
        digest = hashlib.sha256()
        for report in reports[2]:
            digest.update(report.encode())
        assert digest.hexdigest() == VERIFY_REPORT_DIGEST

    def test_an_earlier_task_failure_outranks_a_later_task_build_error(self, monkeypatch, forks, tmp_path):
        # Families are dealt round-robin, so the failing configuration's
        # family and the next one run on different workers; the failure
        # waits until the other worker has refused the next family's first
        # build.
        families = [list(f) for _, f in itertools.groupby(GRID, key=lambda c: (c.m1, c.m2, c.n))]
        at = next(i for i, family in enumerate(families) if self.FAILING in family)
        later = families[at + 1][0]
        allocs = _grid_allocs()
        refused = tmp_path / "refused"
        refuse_build_at(monkeypatch, later, allocs, refused)
        with pytest.raises(InfeasibleAllocation, match=re.escape(f"{later} seed 0: refused")):
            verify.check_precoders(5, 1, allocs)
        refused.unlink()
        zero_legit_at(monkeypatch, self.FAILING, after=refused)
        pooled = verify.check_precoders(5, 1, allocs)
        assert forks and refused.exists()
        monkeypatch.setattr(verify, "usable_cpus", lambda: 1)
        assert pooled == verify.check_precoders(5, 1, allocs)
        assert pooled.detail.startswith(f"{self.FAILING} seed 0: legit rank 0")

    def test_no_process_outlives_a_call(self, monkeypatch, forks):
        # Raw forks: ``multiprocessing.active_children()`` would not see them.
        assert verify.run_verification(2, 1)["passed"]
        assert forks and no_children()
        allocs = _grid_allocs()
        zero_legit_at(monkeypatch, self.FAILING)
        assert not verify.check_precoders(2, 1, allocs).passed
        assert no_children()
        refuse_build_at(monkeypatch, AntennaConfig(1, 1, 1, 0), allocs)
        with pytest.raises(InfeasibleAllocation):
            verify.check_precoders(2, 1, allocs)
        assert no_children()

    def test_a_one_family_walk_starts_no_process(self, forks):
        assert verify.check_config(AntennaConfig(3, 3, 4, 2), 2)[1] == []
        assert verify.run_verification(1, 1)["passed"]
        assert forks == []

    def test_no_process_is_forked_beside_a_running_thread(self, forks):
        done = threading.Event()
        waiting = threading.Thread(target=done.wait, args=(60,))
        waiting.start()
        try:
            assert verify.run_verification(2, 1)["passed"]
        finally:
            done.set()
            waiting.join(60)
        assert not waiting.is_alive() and forks == []
