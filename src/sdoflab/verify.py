"""Self-verification suites behind the ``verify`` CLI command.

Runs the library's cross-module invariants programmatically: closed-form
consistency over an exhaustive antenna grid, allocation audits, precoder
residual/rank checks over random channel seeds, and (optionally) quick
Monte Carlo slope smoke tests.  Returns a JSON-friendly report; every
check carries a pass flag and its worst observed residual or first
counterexample.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from .channel import (
    ChannelRealization,
    EveMode,
    RngStream,
    SignalParams,
    channel_uses,
    sample_channels,
)
from .errors import SdofLabError, located
from .precoding import build_precoders, leakage_rank
from .sdof import (
    AntennaConfig,
    _antenna_grid,
    allocate_jamming,
    audit_allocation,
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


def check_theory(max_antennas: int) -> CheckResult:
    """Case/closed-form agreement plus symmetry, monotonicity and clamping."""
    try:
        rows = regime_table(max_antennas)
    except SdofLabError as exc:
        return CheckResult("theory_consistency", False, str(exc))
    for config, _, value in rows:
        mirrored = sum_sdof(AntennaConfig(config.m2, config.m1, config.n, config.n_e))
        if mirrored.as_fraction != value.as_fraction:
            return CheckResult("theory_consistency", False, f"symmetry broken at {config}")
        if config.n_e >= config.m and value.as_fraction != 0:
            return CheckResult("theory_consistency", False, f"clamp broken at {config}")
        if config.n_e >= 1:
            previous = sum_sdof(
                AntennaConfig(config.m1, config.m2, config.n, config.n_e - 1)
            )
            if value.as_fraction > previous.as_fraction:
                return CheckResult(
                    "theory_consistency", False, f"not monotone in n_e at {config}"
                )
    return CheckResult(
        "theory_consistency", True, f"{len(rows)} configurations consistent"
    )


def check_allocations(max_antennas: int) -> CheckResult:
    """Every allocation must pass its exact rational audit."""
    count = 0
    for config in _antenna_grid(max_antennas):
        report = audit_allocation(allocate_jamming(config), config)
        count += 1
        if not report.ok:
            failed = ", ".join(c.name for c in report.failures())
            return CheckResult(
                "allocation_audits", False, f"{config}: failed {failed}"
            )
    return CheckResult("allocation_audits", True, f"{count} allocations audited")


def check_config(config: AntennaConfig, seeds: int):
    """Residual and rank invariants of one configuration's precoder sets.

    Builds a set for each channel seed 0 .. seeds - 1, all in one stacked
    build, and checks its residuals against the gates and its ranks
    against the allocation, the leakage rank on channel use 0 of a
    time-varying eavesdropper (a static one would need the fractional
    alignment that time sharing replaces).  Returns (worst residual of each
    kind, one line per failing seed).  A build that fails raises its own
    error type, its message naming the config and the seed.
    """
    alloc = allocate_jamming(config)
    slots = alloc.slots
    expect_u_rank = slots * config.n - int(alloc.j_s * slots)
    expect_legit = int(alloc.d_total * slots)
    expect_leak = int(min(Fraction(config.n_e), alloc.total_streams) * slots)
    worst = dict.fromkeys(("nullspace", "alignment", "unitarity", "zero-forcing"), 0.0)
    failures = []
    rngs = [RngStream(seed, (0, 0)) for seed in range(seeds)]
    draws = sample_channels(config, rngs, EveMode.TIME_VARYING)
    try:
        sets = build_precoders(config, draws, alloc, rngs)
    except SdofLabError as exc:
        # A failure that is not one member's fails every seed alike.
        raise located(exc, f"{config} seed {exc.member or 0}") from exc
    uses = channel_uses(config, draws, rngs, [0], EveMode.TIME_VARYING, slots)
    for seed, pre in enumerate(sets):
        seen = ChannelRealization(uses.h1[seed], uses.h2[seed], uses.g1[seed, 0], uses.g2[seed, 0])
        residuals = (
            ("nullspace", pre.report.nullspace_residual, NULLSPACE_RESIDUAL_MAX),
            ("alignment", pre.report.alignment_residual, ALIGNMENT_RESIDUAL_MAX),
            ("unitarity", pre.report.unitarity_residual, UNITARITY_RESIDUAL_MAX),
            ("zero-forcing", pre.report.zero_forcing_residual, ZERO_FORCING_RESIDUAL_MAX),
        )
        ranks = (
            ("rank(U)", pre.report.u_rank, expect_u_rank),
            ("legit rank", pre.report.legit_rank, expect_legit),
            ("leakage rank", leakage_rank(seen, pre), expect_leak),
        )
        for kind, value, _ in residuals:
            worst[kind] = max(worst[kind], value)
        problems = [f"{kind} residual {got:.2e}" for kind, got, gate in residuals if got > gate]
        problems += [f"{name} {got} != {want}" for name, got, want in ranks if got != want]
        if problems:
            failures.append(f"{config} seed {seed}: " + "; ".join(problems))
    return worst, failures


def check_precoders(max_antennas: int, seeds: int) -> CheckResult:
    """``check_config`` over the antenna grid, stopping at the first failing configuration."""
    cap = min(max_antennas, PRECODER_ANTENNA_CAP)
    worst = 0.0
    builds = 0
    for config in _antenna_grid(cap, include_all_ne=False):
        config_worst, failures = check_config(config, seeds)
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
        samples = sweep(
            config,
            SignalParams(1.0),
            [60.0, 70.0, 80.0, 90.0, 100.0],
            trials=10,
            master_seed=1,
            mode=EveMode.TIME_VARYING,
        )
        legit, _ = estimate_dof(samples, (60.0, 100.0))
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
    checks = [
        check_theory(max_antennas),
        check_allocations(max_antennas),
        check_precoders(max_antennas, seeds),
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
