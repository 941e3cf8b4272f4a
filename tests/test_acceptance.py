"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
criteria share one set of seeded sweeps (module fixture); everything is
deterministic given the seeds pinned here.
"""

import time
from fractions import Fraction

import pytest

from helpers import bound_stacks
from sdoflab import (
    AntennaConfig,
    EveMode,
    SignalParams,
    allocate_jamming,
    audit_allocation,
    classify,
    estimate_dof,
    sum_sdof,
    sweep,
    upper_bounds,
)
from sdoflab import verify
from sdoflab.cli import main as cli_main, render_csv
from sdoflab.sdof import Regime, _case_halves

GRID_DB = [60.0, 70.0, 80.0, 90.0, 100.0]
WINDOW_DB = (60.0, 100.0)
TRIALS = 120
MASTER_SEED = 20240

# Slope targets hand-derived from the closed form
# min(m1+m2-ne, (max(m1,n)+max(m2,n)-ne)/2, n); each is re-derived by
# sum_sdof inside the test.  For (3,3,2,2) both Z-channel maxima are 3,
# giving min(4, 2, 2) = 2.
SLOPE_TARGETS = {
    (1, 1, 1, 1): Fraction(1, 2),
    (2, 2, 4, 1): Fraction(3),
    (2, 2, 3, 1): Fraction(5, 2),
    (2, 2, 3, 2): Fraction(2),
    (4, 1, 2, 1): Fraction(2),
    (5, 1, 2, 5): Fraction(1),
    (3, 3, 2, 2): Fraction(2),
}

SLOPE_TOLERANCE = 0.15
LEAKAGE_SLOPE_MAX = 0.05
LEAKAGE_SPREAD_MAX = 1.0
MODE_AGREEMENT_MAX = 0.1


def _verdict(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")


@pytest.fixture(scope="module")
def sweeps():
    out = {}
    for cfg in SLOPE_TARGETS:
        config = AntennaConfig(*cfg)
        for mode in (EveMode.TIME_VARYING, EveMode.STATIC):
            out[cfg, mode] = sweep(
                config, SignalParams(1.0), GRID_DB, TRIALS, MASTER_SEED, mode
            )
    return out


def _full_grid():
    for m1 in range(1, 9):
        for m2 in range(1, 9):
            for n in range(1, 9):
                for n_e in range(0, m1 + m2 + 1):
                    yield AntennaConfig(m1, m2, n, n_e)


def test_criterion_1_closed_form_consistency():
    start = time.perf_counter()
    count = 0
    for config in _full_grid():
        label = classify(config)
        closed_form = max(Fraction(0), min(upper_bounds(config)))
        assert Fraction(_case_halves(label.regime, config), 2) == closed_form, config
        assert sum_sdof(config).as_fraction == closed_form, config
        count += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 1: exhaustive closed-form consistency",
        True,
        f"{count} configs in {elapsed:.2f}s",
    )
    assert elapsed < 1.0


def test_criterion_2_allocation_audits():
    start = time.perf_counter()
    count = 0
    for config in _full_grid():
        alloc = allocate_jamming(config)
        report = audit_allocation(alloc, config)
        assert report.ok, (config, report.failures())
        label = classify(config)
        if label.regime is Regime.C1 and config.m > config.n:
            # occupancy identity in the aligned/random overflow cases
            assert 2 * config.n - alloc.j_s == 2 * (config.m - config.n_e), config
        count += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 2: allocation audits",
        True,
        f"{count} allocations in {elapsed:.2f}s",
    )
    assert elapsed < 5.0


def test_criterion_3_precoder_algebra():
    # verify.check_config holds the gates; pin them here so loosening one
    # means editing this test.
    gates = (
        verify.NULLSPACE_RESIDUAL_MAX,
        verify.ALIGNMENT_RESIDUAL_MAX,
        verify.UNITARITY_RESIDUAL_MAX,
        verify.ZERO_FORCING_RESIDUAL_MAX,
    )
    assert gates == (1e-9, 1e-8, 1e-9, 1e-8)
    seeds = 100
    configs = [
        AntennaConfig(m1, m2, n, n_e)
        for m1 in range(1, 6)
        for m2 in range(1, 6)
        for n in range(1, 6)
        for n_e in range(0, m1 + m2)
    ]
    start = time.perf_counter()
    results = [verify.check_config(config, seeds) for config in configs]
    elapsed = time.perf_counter() - start
    failures = [msg for _, config_failures in results for msg in config_failures]
    worst = {key: max(r[0][key] for r in results) for key in results[0][0]}
    _verdict(
        "criterion 3: precoder algebra",
        not failures,
        f"{len(configs)} configs x {seeds} seeds in {elapsed:.1f}s; worst residuals "
        f"null={worst['nullspace']:.1e} align={worst['alignment']:.1e} "
        f"unit={worst['unitarity']:.1e} zf={worst['zero-forcing']:.1e}",
    )
    assert not failures, failures[:10]
    assert elapsed < 60.0


def test_criterion_4_dof_slopes(sweeps):
    details = []
    ok = True
    for cfg, target in SLOPE_TARGETS.items():
        config = AntennaConfig(*cfg)
        assert sum_sdof(config).as_fraction == target, cfg
        legit, _ = estimate_dof(sweeps[cfg, EveMode.TIME_VARYING], WINDOW_DB)
        err = abs(legit.slope - float(target))
        ok &= err <= SLOPE_TOLERANCE
        details.append(f"{cfg}: {legit.slope:.3f} vs {target} (err {err:.3f})")
    _verdict("criterion 4: DoF slope reproduction", ok, "; ".join(details))
    assert ok, details


def test_criterion_5_leakage_saturation(sweeps):
    details = []
    ok = True
    for cfg in SLOPE_TARGETS:
        result = sweeps[cfg, EveMode.TIME_VARYING]
        _, leakage = estimate_dof(result, WINDOW_DB)
        grid_means = result.leakage.mean(axis=0)
        spread = float(grid_means.max() - grid_means.min())
        ok &= abs(leakage.slope) <= LEAKAGE_SLOPE_MAX and spread <= LEAKAGE_SPREAD_MAX
        details.append(f"{cfg}: slope {leakage.slope:+.3f}, spread {spread:.2f} bits")
    _verdict("criterion 5: leakage saturation", ok, "; ".join(details))
    assert ok, details


def test_criterion_6_mode_invariance(sweeps):
    details = []
    ok = True
    for cfg in SLOPE_TARGETS:
        static, _ = estimate_dof(sweeps[cfg, EveMode.STATIC], WINDOW_DB)
        varying, _ = estimate_dof(sweeps[cfg, EveMode.TIME_VARYING], WINDOW_DB)
        gap = abs(static.slope - varying.slope)
        ok &= gap <= MODE_AGREEMENT_MAX
        details.append(f"{cfg}: |{static.slope:.3f} - {varying.slope:.3f}| = {gap:.3f}")
    _verdict("criterion 6: mode invariance", ok, "; ".join(details))
    assert ok, details


def test_criterion_7_zero_sdof_edge(tmp_path):
    ok = True
    details = []
    for cfg in ((1, 1, 4, 2), (2, 3, 2, 5), (2, 2, 8, 4)):
        config = AntennaConfig(*cfg)
        assert config.n_e >= config.m
        assert sum_sdof(config).as_fraction == 0
        alloc = allocate_jamming(config)
        assert alloc.d_total == 0
        result = sweep(config, SignalParams(1.0), GRID_DB, 5, 3, EveMode.STATIC)
        legit, _ = estimate_dof(result, WINDOW_DB)
        ok &= abs(legit.slope) <= 0.05
        details.append(f"{cfg}: slope {legit.slope:.4f}")
    summary_path = tmp_path / "summary.json"
    code = cli_main(
        ["simulate", "--m1", "1", "--m2", "1", "--n", "4", "--ne", "2",
         "--trials", "3", "--csv", str(tmp_path / "zero.csv"), "--summary", str(summary_path)]
    )
    assert code == 0
    import json

    summary = json.loads(summary_path.read_text())
    ok &= summary["theory_value"] == 0.0 and abs(summary["legit_slope"]) <= 0.05
    details.append(f"cmd summary slope {summary['legit_slope']:.4f}")
    _verdict("criterion 7: zero-SDoF edge", ok, "; ".join(details))
    assert ok, details


def test_criterion_8_determinism(sweeps, tmp_path, monkeypatch, uncapped_workers):
    ok = True
    details = []
    for cfg in SLOPE_TARGETS:
        config = AntennaConfig(*cfg)
        baseline = render_csv(sweeps[cfg, EveMode.TIME_VARYING])
        rerun = render_csv(
            sweep(config, SignalParams(1.0), GRID_DB, TRIALS, MASTER_SEED, EveMode.TIME_VARYING)
        )
        with monkeypatch.context() as patch:
            # Four stacks of 30 trials, one per worker thread.
            bound_stacks(patch, config, TRIALS // 4, EveMode.TIME_VARYING)
            threaded = render_csv(
                sweep(
                    config, SignalParams(1.0), GRID_DB, TRIALS, MASTER_SEED,
                    EveMode.TIME_VARYING, threads=4,
                )
            )
        same = baseline.encode() == rerun.encode() == threaded.encode()
        ok &= same
        details.append(f"{cfg}: {'identical' if same else 'DIFFERS'}")

    # full command-line path, twice
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (csv_a, csv_b):
        code = cli_main(
            ["simulate", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "2",
             "--trials", str(TRIALS), "--seed", str(MASTER_SEED),
             "--csv", str(path), "--summary", str(tmp_path / "s.json")]
        )
        assert code == 0
    cli_same = csv_a.read_bytes() == csv_b.read_bytes()
    ok &= cli_same
    details.append(f"cli reruns: {'identical' if cli_same else 'DIFFERS'}")
    _verdict("criterion 8: determinism", ok, "; ".join(details))
    assert ok, details
