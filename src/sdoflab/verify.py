"""Self-verification suites behind the ``verify`` CLI command.

Runs the library's cross-module invariants programmatically: closed-form
consistency over an exhaustive antenna grid, allocation audits, precoder
residual/rank checks over random channel seeds, and (optionally) quick
Monte Carlo slope smoke tests.  Returns a JSON-friendly report; every
check carries a pass flag and its worst observed residual or first
counterexample.

The precoder checks walk the grid one (m1, m2, n) family at a time.  Each
seed's legitimate, eavesdropper and jamming streams are drawn once per
run (``channel.TrialNormals``), as long as the longest walked
configuration reads, and every configuration reads its own prefix of
them.  One legitimate draw and its ``precoding.DrawFactors`` serve every
n_e of a family (why that is sound is stated there), and each
configuration is allocated once per run.  Residuals are taken as each set
is built; the rank matrices of the audits wait in a bounded queue,
decided in one stacked SVD per shape, and every configuration is then
judged in walk order, so the first failure and the worst residual are
those of a walk that stops there.  Nothing is kept past the call.

The families are walked in worker processes, as many as the CPUs this
process may run on (``simulate.usable_cpus``) and at most one per family,
on the helper ``sweep`` runs its stacks on (``simulate._in_workers``):
this process is the first worker and the others are forked.  Families
are dealt round-robin, family i to worker i mod W, so the large-antenna
families at the end of the walk are shared out, and each worker runs one
``_checks`` over its families.  The parent puts the results back in walk
order, so the report does not depend on the number of workers.  A walk
of one family (``check_config``), a process on one CPU or with another
thread running, and a platform without ``os.fork`` stay in process, and
no worker outlives the call.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .channel import (
    ChannelRealization,
    EveMode,
    RngStream,
    SignalParams,
    TrialNormals,
    draw_lengths,
)
from .errors import SdofLabError, located
from .precoding import DrawFactors, audit_set, build_precoders, jamming_length
from .sdof import (
    AntennaConfig,
    JammingAllocation,
    _antenna_grid,
    _audit,
    allocate_jamming,
    check_count,
    regime_table,
    sum_sdof,
)
from .simulate import _in_workers, estimate_dof, sweep, usable_cpus
from .subspaces import ranks

__all__ = ["CheckResult", "run_verification"]

# Residual gates of the precoder checks in check_config.
NULLSPACE_RESIDUAL_MAX = 1e-9
ALIGNMENT_RESIDUAL_MAX = 1e-8
UNITARITY_RESIDUAL_MAX = 1e-9
ZERO_FORCING_RESIDUAL_MAX = 1e-8

# Precoder sweeps get expensive combinatorially; theory checks scale to any
# --max-antennas but the numeric sweeps are capped here.
PRECODER_ANTENNA_CAP = 5

# Bytes of rank matrices ``_checks`` queues before deciding them: enough
# that a one-seed walk stacks a few families' matrices per SVD, few enough
# that a many-seed walk holds about one family's.
_RANK_QUEUE_BYTES = 50_000

_SLOPE_SMOKE_CONFIGS = ((2, 2, 3, 2), (4, 1, 2, 1), (2, 2, 3, 1))
_SLOPE_SMOKE_TOLERANCE = 0.25


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    worst_residual: float | None = None


def check_theory(rows) -> CheckResult:
    """Symmetry, monotonicity and clamping over the ``regime_table`` rows.

    Building the rows checked each case value against the closed form; the
    mirrored and n_e - 1 values come from the same rows, which hold every
    configuration the checks compare against.
    """
    values = {(c.m1, c.m2, c.n, c.n_e): value for c, _, value in rows}
    for config, _, value in rows:
        m1, m2, n, n_e = config.m1, config.m2, config.n, config.n_e
        if values[m2, m1, n, n_e] != value:
            return CheckResult("theory_consistency", False, f"symmetry broken at {config}")
        if n_e >= config.m and value.numerator != 0:
            return CheckResult("theory_consistency", False, f"clamp broken at {config}")
        if n_e >= 1 and value.value > values[m1, m2, n, n_e - 1].value:
            return CheckResult(
                "theory_consistency", False, f"not monotone in n_e at {config}"
            )
    return CheckResult(
        "theory_consistency", True, f"{len(rows)} configurations consistent"
    )


def check_allocations(rows, allocs: dict[AntennaConfig, JammingAllocation]) -> CheckResult:
    """Every allocation must pass its exact audit, in the regime its ``regime_table`` row gives."""
    for config, label, _ in rows:
        checks = _audit(allocs[config], config, label.regime)
        failed = [name for name, passed, _ in checks if not passed]
        if failed:
            return CheckResult(
                "allocation_audits", False, f"{config}: failed {', '.join(failed)}"
            )
    return CheckResult("allocation_audits", True, f"{len(allocs)} allocations audited")


def _family_builds(configs, rngs, allocs, normals: TrialNormals):
    """The precoder sets of one (m1, m2, n) family's configurations, built in order.

    ``configs`` share m1, m2 and n and differ in n_e.  The family's
    legitimate channels, read once from ``normals``, serve all of them and
    their builds share its ``DrawFactors``; each configuration reads its
    own eavesdropper, and every build its random directions, from the same
    rows.  Every set is bit for bit the one ``build_precoders`` makes on
    that configuration's own ``sample_channels`` draw.  Yields (config,
    draw, the shared factors, precoder set); a build that fails raises its
    error, located at the config and seed.
    """
    first = normals.channels(configs[0])
    factors = DrawFactors(first)
    for config in configs:
        draws = first
        if config is not configs[0]:
            draws = ChannelRealization(first.h1, first.h2, *normals.eavesdropper(config))
        try:
            pre = build_precoders(
                draws, allocs[config], rngs, _factors=factors, _jamming=normals.jamming
            )
        except SdofLabError as exc:
            # A failure that is not one member's fails every seed alike.
            where = f"{config} seed {exc.member or 0}" if rngs else str(config)
            raise located(exc, where) from exc
        yield config, draws, factors, pre


def _judge(config, alloc, residuals, decided):
    """``check_config``'s result for one configuration from its (4, seeds) residuals and (3, seeds) ranks.

    The residuals are the build's block residuals, then ``audit_set``'s;
    the ranks are those of the audit's rank matrices.
    """
    # Ranks count real dimensions, two per antenna, one per real stream.
    expected = np.array([
        2 * config.n - alloc.j_s,
        alloc.d_total,
        min(2 * config.n_e, alloc.total_streams),
    ])
    kinds = ("nullspace", "alignment", "unitarity", "zero-forcing")
    gates = np.array([
        NULLSPACE_RESIDUAL_MAX,
        ALIGNMENT_RESIDUAL_MAX,
        UNITARITY_RESIDUAL_MAX,
        ZERO_FORCING_RESIDUAL_MAX,
    ])
    names = ("rank(U)", "legit rank", "leakage rank")
    # Rows are checks, columns seeds.
    over, wrong = residuals > gates[:, None], decided != expected[:, None]
    worst = dict(zip(kinds, residuals.max(axis=1).tolist()))
    if not (over.any() or wrong.any()):
        return worst, []
    failures = []
    for seed in np.flatnonzero(over.any(axis=0) | wrong.any(axis=0)):
        problems = [
            f"{kind} residual {got:.2e}"
            for kind, got, bad in zip(kinds, residuals[:, seed], over[:, seed])
            if bad
        ]
        problems += [
            f"{name} {got} != {want}"
            for name, got, want, bad in zip(names, decided[:, seed], expected, wrong[:, seed])
            if bad
        ]
        failures.append(f"{config} seed {seed}: " + "; ".join(problems))
    return worst, failures


def _decide_ranks(matrices) -> list[np.ndarray]:
    """``ranks`` of every stack of ``matrices``, from one stacked SVD per distinct shape."""
    by_shape = collections.defaultdict(list)
    for i, m in enumerate(matrices):
        by_shape[m.shape].append(i)
    decided = [None] * len(matrices)
    for members in by_shape.values():
        for i, r in zip(members, ranks(np.stack([matrices[i] for i in members]))):
            decided[i] = r
    return decided


def _seed_streams(seeds: int, allocs: dict[AntennaConfig, JammingAllocation]):
    """The trial streams of channel seeds 0 .. seeds - 1 and their ``TrialNormals``.

    The rows are as long as any configuration of ``allocs``, a dict of
    allocations, reads.
    """
    lengths = np.array([
        (*draw_lengths(c), jamming_length(a, 2 * c.m1, 2 * c.m2)) for c, a in allocs.items()
    ])
    rngs = [RngStream(seed) for seed in range(seeds)]
    return rngs, TrialNormals.draw(rngs, EveMode.STATIC, *lengths.max(axis=0).tolist())


def _checks(families, rngs, normals, allocs):
    """``check_config`` of every configuration of ``families``, in order: (its (config, result) pairs, error).

    ``families`` is a sequence of family config lists (``_family_builds``).
    The residuals of each configuration are taken as it is built; its
    rank matrices wait in a queue that is decided in one ``ranks`` call
    per distinct shape at a family boundary, once the queue holds
    ``_RANK_QUEUE_BYTES``, and at the end.  A build that fails stops the
    walk: the pairs are then those of every configuration before it, and
    the error is the build's; else it is None.
    """
    pairs, queue, queued_bytes = [], [], 0

    def judge_queue():
        nonlocal queued_bytes
        decided = _decide_ranks([m for _, _, matrices in queue for m in matrices])
        for i, (config, residuals, _) in enumerate(queue):
            ranked = np.array(decided[3 * i : 3 * i + 3])
            pairs.append((config, _judge(config, allocs[config], residuals, ranked)))
        queue.clear()
        queued_bytes = 0

    for family in families:
        try:
            for config, draws, factors, pre in _family_builds(family, rngs, allocs, normals):
                audit = audit_set(factors, pre, draws)
                residuals = np.array([
                    pre.report.nullspace_residual,
                    pre.report.alignment_residual,
                    audit.unitarity_residual,
                    audit.zero_forcing_residual,
                ])
                queue.append((config, residuals, audit.rank_matrices))
                queued_bytes += sum(m.nbytes for m in audit.rank_matrices)
        except SdofLabError as exc:
            judge_queue()
            return pairs, exc
        if queued_bytes >= _RANK_QUEUE_BYTES:
            judge_queue()
    judge_queue()
    return pairs, None


def _walk(families, rngs, normals, allocs):
    """``_checks`` of ``families``, in walk order, split over worker processes where that can pay.

    The workers are as many as the CPUs this process may run on
    (``usable_cpus``), at most one per family, and worker w runs one
    ``_checks`` of families w, w + W, w + 2W, ... (``_in_workers``).  Each
    forked worker inherits the walk (the rows of ``normals`` and
    ``allocs``), so nothing large is pickled, and hands back its
    ``_checks`` pairs and error.  Returns the pairs in walk order up to
    the first error in walk order, and that error or None, so the order
    of results and errors is the one-process walk's.
    """
    workers = min(usable_cpus(), len(families))
    shares = [families[w::workers] for w in range(workers)]
    order = {config: i for i, config in enumerate(itertools.chain(*families))}
    results = _in_workers(lambda share: _checks(share, rngs, normals, allocs), shares)
    pairs, errors = [], []
    for share, (done, error) in zip(shares, results):
        pairs += done
        if error is not None:  # raised at the share's first configuration not done
            errors.append((order[list(itertools.chain(*share))[len(done)]], error))
    stop, error = min(errors, default=(len(order), None))
    pairs.sort(key=lambda pair: order[pair[0]])
    return [pair for pair in pairs if order[pair[0]] < stop], error


def check_config(config: AntennaConfig, seeds: int):
    """Residual and rank invariants of one configuration's precoder sets.

    Builds a set for each channel seed 0 .. seeds - 1, all in one stacked
    build, and checks its residuals against the gates and its ranks, in
    real dimensions, against the allocation's counts; the leakage
    rank is taken against a static eavesdropper, which every allocation
    jams fully in one channel use.  Every gate compares all the seeds at
    once.  This is ``check_precoders``' family walk restricted to one n_e.
    Returns (worst residual of each kind, one line per failing seed).  A
    build that fails raises its own error type, its message naming the
    config and the seed; no seeds at all is an empty stack, which raises
    InvalidMatrix.
    """
    allocs = {config: allocate_jamming(config)}
    pairs, error = _checks([[config]], *_seed_streams(seeds, allocs), allocs)
    if error is not None:
        raise error
    ((_, result),) = pairs
    return result


def check_precoders(
    max_antennas: int, seeds: int, allocs: dict[AntennaConfig, JammingAllocation]
) -> CheckResult:
    """``check_config`` over the antenna grid, stopping at the first failing configuration.

    The grid is walked one (m1, m2, n) family at a time (``_checks``),
    in worker processes where there are CPUs for them (``_walk``);
    ``allocs`` holds the allocation of every configuration it visits.
    The worst residual covers the configurations up to the first failing
    one, in walk order, whatever the number of workers.
    """
    cap = min(max_antennas, PRECODER_ANTENNA_CAP)
    grid = list(_antenna_grid(cap, include_all_ne=False))
    families = [
        list(family)
        for _, family in itertools.groupby(grid, key=lambda c: (c.m1, c.m2, c.n))
    ]
    rngs, normals = _seed_streams(seeds, {config: allocs[config] for config in grid})
    pairs, error = _walk(families, rngs, normals, allocs)
    worst = 0.0
    builds = 0
    for config, (config_worst, failures) in pairs:
        builds += seeds
        worst = max(worst, *config_worst.values())
        if failures:
            return CheckResult("precoder_invariants", False, failures[0], worst)
    if error is not None:
        raise error
    return CheckResult("precoder_invariants", True, f"{builds} precoder sets checked", worst)


def check_slopes() -> CheckResult:
    """Quick Monte Carlo smoke: measured slope near the closed form."""
    worst = 0.0
    for cfg in _SLOPE_SMOKE_CONFIGS:
        config = AntennaConfig(*cfg)
        result = sweep(
            config,
            SignalParams(1.0),
            [60.0, 70.0, 80.0, 90.0, 100.0],
            trials=10,
            master_seed=1,
            mode=EveMode.TIME_VARYING,
        )
        legit, _ = estimate_dof(result, (60.0, 100.0))
        err = abs(legit.slope - sum_sdof(config).value)
        worst = max(worst, err)
        if err > _SLOPE_SMOKE_TOLERANCE:
            return CheckResult(
                "slope_smoke",
                False,
                f"{config}: slope {legit.slope:.3f} vs {sum_sdof(config)}",
                worst,
            )
    return CheckResult("slope_smoke", True, f"{len(_SLOPE_SMOKE_CONFIGS)} configs", worst)


def run_verification(
    max_antennas: int = 5, seeds: int = 20, full: bool = False
) -> dict:
    """Run all verification suites and return a JSON-serializable report."""
    check_count("max_antennas", max_antennas)
    check_count("seeds", seeds)
    # One classification and one allocation per configuration serve the
    # theory checks, the audits and the precoder checks.  A case value that
    # disagrees with the closed form raises SdofLabError here.
    rows = regime_table(max_antennas)
    allocs = {config: allocate_jamming(config) for config, _, _ in rows}
    checks = [
        check_theory(rows),
        check_allocations(rows, allocs),
        check_precoders(max_antennas, seeds, allocs),
    ]
    if full:
        checks.append(check_slopes())
    return {
        "max_antennas": max_antennas,
        "seeds": seeds,
        "full": full,
        "passed": all(c.passed for c in checks),
        "checks": [asdict(c) for c in checks],
    }
