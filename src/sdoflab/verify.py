"""Self-verification suites behind the ``verify`` CLI command.

Runs the library's cross-module invariants programmatically: closed-form
consistency over an exhaustive antenna grid, allocation audits, precoder
residual/rank checks over random channel seeds, and (optionally) quick
Monte Carlo slope smoke tests.  Returns a JSON-friendly report; every
check carries a pass flag and its worst observed residual or first
counterexample.

The precoder checks walk the grid one (m1, m2, n) family at a time: one
legitimate draw and its ``precoding.DrawFactors`` serve every n_e of the
family (why that is sound is stated there), and each configuration is
allocated once per run; nothing is kept past the call.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .channel import (
    ChannelRealization,
    EveMode,
    RngStream,
    SignalParams,
    TrialSeeds,
    channel_uses,
    sample_channels,
)
from .errors import SdofLabError, located
from .precoding import DrawFactors, audit_set, build_precoders, leakage_rank
from .sdof import (
    AntennaConfig,
    JammingAllocation,
    _antenna_grid,
    _audit,
    allocate_jamming,
    regime_table,
    sum_sdof,
)
from .simulate import estimate_dof, sweep

__all__ = ["CheckResult", "run_verification"]

# Residual gates of the precoder checks in check_config.
NULLSPACE_RESIDUAL_MAX = 1e-9
ALIGNMENT_RESIDUAL_MAX = 1e-8
UNITARITY_RESIDUAL_MAX = 1e-9
ZERO_FORCING_RESIDUAL_MAX = 1e-8

# Precoder sweeps get expensive combinatorially; theory checks scale to any
# --max-antennas but the numeric sweeps are capped here.
PRECODER_ANTENNA_CAP = 5

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


def _family_builds(configs, rngs, allocs, trial_seeds: TrialSeeds):
    """The precoder sets of one (m1, m2, n) family's configurations, built in order.

    ``configs`` share m1, m2 and n and differ in n_e.  One
    ``sample_channels`` call, for the first configuration, draws the
    legitimate channels of all of them and their builds share its
    ``DrawFactors``; each configuration draws its own eavesdropper from
    ``trial_seeds``.  Every set is bit for bit the one ``build_precoders``
    makes on that configuration's own ``sample_channels`` draw.  Yields
    (config, draw, the shared factors, precoder set); a build that fails
    raises its error, located at the config and seed.
    """
    first = sample_channels(configs[0], rngs, EveMode.STATIC)
    factors = DrawFactors(first)
    for config in configs:
        draws = first
        if config is not configs[0]:
            draws = ChannelRealization(first.h1, first.h2, *trial_seeds.eavesdropper(config))
        try:
            pre = build_precoders(draws, allocs[config], rngs, _factors=factors)
        except SdofLabError as exc:
            # A failure that is not one member's fails every seed alike.
            where = f"{config} seed {exc.member or 0}" if rngs else str(config)
            raise located(exc, where) from exc
        yield config, draws, factors, pre


def _check_set(config, draws, factors, rngs, alloc, pre):
    """Residual and rank invariants of one configuration's precoder set: ``check_config``'s result.

    The build's report gives the block residuals and ``audit_set``, on the
    draw's ``factors``, the rest.
    """
    # Ranks count real dimensions, two per antenna, one per real stream.
    expect_u_rank = 2 * config.n - alloc.j_s
    expect_legit = alloc.d_total
    expect_leak = min(2 * config.n_e, alloc.total_streams)
    uses = channel_uses(config, draws, rngs, [0], EveMode.STATIC)
    report, audit = pre.report, audit_set(factors, pre)
    kinds = ("nullspace", "alignment", "unitarity", "zero-forcing")
    residuals = np.array([
        report.nullspace_residual,
        report.alignment_residual,
        audit.unitarity_residual,
        audit.zero_forcing_residual,
    ])
    gates = np.array([
        NULLSPACE_RESIDUAL_MAX,
        ALIGNMENT_RESIDUAL_MAX,
        UNITARITY_RESIDUAL_MAX,
        ZERO_FORCING_RESIDUAL_MAX,
    ])
    names = ("rank(U)", "legit rank", "leakage rank")
    ranks = np.array([audit.u_rank, audit.legit_rank, leakage_rank(uses, pre)[:, 0]])
    expected = np.array([expect_u_rank, expect_legit, expect_leak])
    # Rows are checks, columns seeds.
    over, wrong = residuals > gates[:, None], ranks != expected[:, None]
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
            for name, got, want, bad in zip(names, ranks[:, seed], expected, wrong[:, seed])
            if bad
        ]
        failures.append(f"{config} seed {seed}: " + "; ".join(problems))
    return worst, failures


def _seed_streams(seeds: int):
    """The trial streams of channel seeds 0 .. seeds - 1 and their ``TrialSeeds``."""
    rngs = [RngStream(seed, (0, 0)) for seed in range(seeds)]
    return rngs, TrialSeeds(rngs, EveMode.STATIC)


def _family_checks(configs, rngs, trial_seeds, allocs):
    """``check_config`` of each of one family's configurations in order, as (config, result)."""
    for config, draws, factors, pre in _family_builds(configs, rngs, allocs, trial_seeds):
        yield config, _check_set(config, draws, factors, rngs, allocs[config], pre)


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
    ((_, result),) = _family_checks([config], *_seed_streams(seeds), allocs)
    return result


def check_precoders(
    max_antennas: int, seeds: int, allocs: dict[AntennaConfig, JammingAllocation]
) -> CheckResult:
    """``check_config`` over the antenna grid, stopping at the first failing configuration.

    The grid is walked one (m1, m2, n) family at a time (``_family_builds``);
    ``allocs`` holds the allocation of every configuration it visits.
    """
    cap = min(max_antennas, PRECODER_ANTENNA_CAP)
    rngs, trial_seeds = _seed_streams(seeds)
    worst = 0.0
    builds = 0
    families = itertools.groupby(
        _antenna_grid(cap, include_all_ne=False), key=lambda c: (c.m1, c.m2, c.n)
    )
    for _, family in families:
        checks = _family_checks(list(family), rngs, trial_seeds, allocs)
        for config, (config_worst, failures) in checks:
            builds += seeds
            worst = max(worst, *config_worst.values())
            if failures:
                return CheckResult("precoder_invariants", False, failures[0], worst)
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
    if max_antennas < 1:
        raise ValueError("max_antennas must be at least 1")
    if seeds < 1:
        raise ValueError("seeds must be at least 1")
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
