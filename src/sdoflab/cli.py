"""Command-line front end.

Subcommands
-----------
sdof       evaluate the closed form for one antenna configuration
design     sample a channel, build precoders, emit a JSON design report
simulate   Monte Carlo power sweep; CSV rates plus a JSON summary
verify     run the library's self-checks; exit 0 iff everything passes

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 infeasible
allocation, 4 output I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .channel import EveMode, RngStream, SignalParams, sample_channels
from .errors import InfeasibleAllocation, SdofLabError
from .precoding import DrawFactors, audit_set, build_precoders
from .sdof import (
    AntennaConfig,
    allocate_jamming,
    audit_allocation,
    classify,
    paper_units,
    sum_sdof,
    upper_bounds,
)
from .simulate import estimate_dof, sweep, trial_bytes
from .verify import run_verification

_MODES = {m.value: m for m in EveMode}
# Most bytes a command may plan to hold at once.  The caps below keep what
# a run holds within it: a larger run would fail in allocation, or run for
# hours, not stop as a usage error.
_MEMORY_BYTES_MAX = 10**9
# Most points a power grid may have, far above any useful sweep.
_GRID_POINTS_MAX = 10_000
# Most samples (trials x grid points) a run may ask for.  A sweep holds two
# float64 (trials, grid) rate arrays, 1.6 GB at this bound, far above any
# useful run: a larger one would fail in allocation, not as a usage error.
_SAMPLES_MAX = 10**8
# Most channel seeds ``verify`` may check.  A walk's memory grows with its
# seeds: each seed's streams hold about 4 kB of normals through the run,
# and each stacked build its share of the largest configurations'
# temporaries, about 50 kB a seed at the peak (tracemalloc of a
# one-process ``run_verification(5, seeds)``: 58 kB at 100 seeds, 50 kB
# at 200).
_SEED_BYTES = 50_000
_SEEDS_MAX = _MEMORY_BYTES_MAX // _SEED_BYTES
# Largest --max-antennas of ``verify``.  For A antennas it holds the A^3 (A + 2)
# rows of ``regime_table`` and an allocation for each, about 700 bytes a row
# (tracemalloc at A = 15: 40 MB over 57,375 rows, made in about 4.5 s).
_REGIME_ROW_BYTES = 700
_ANTENNAS_MAX = max(
    a for a in range(1, 100) if a**3 * (a + 2) * _REGIME_ROW_BYTES <= _MEMORY_BYTES_MAX
)
# Largest |legit slope - D_s| a run passes with, in degrees of freedom: the
# slack the default 60-100 dB grid needs for draws not yet at high SNR.
_SLOPE_TOLERANCE = 0.15


def _fmt(x: float) -> str:
    """Decimal string with 17 significant digits (round-trips exactly)."""
    return format(float(x), ".17g")


def _encode_matrix(mat: np.ndarray) -> dict:
    """A matrix as decimal strings: ``re``, plus ``im`` for a complex one."""
    doc = {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "re": [[_fmt(v) for v in row] for row in mat.real],
    }
    if np.iscomplexobj(mat):
        doc["im"] = [[_fmt(v) for v in row] for row in mat.imag]
    return doc


def decode_matrix(doc: dict) -> np.ndarray:
    """Inverse of the design-report matrix encoding: complex with ``im``, float without."""

    def parse(part):
        return np.array([[float(v) for v in row] for row in doc[part]], dtype=float)

    out = parse("re") + 1j * parse("im") if "im" in doc else parse("re")
    return out.reshape(doc["rows"], doc["cols"])


def _antenna_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m1", type=int, required=True, help="transmitter 1 antennas")
    parser.add_argument("--m2", type=int, required=True, help="transmitter 2 antennas")
    parser.add_argument("--n", type=int, required=True, help="receiver antennas")
    parser.add_argument("--ne", type=int, required=True, help="eavesdropper antenna bound")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sdoflab",
        description="Secure-degrees-of-freedom calculator and Monte Carlo simulator "
        "for the two-transmitter MIMO multiple-access wiretap channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sdof = sub.add_parser("sdof", help="evaluate the closed form")
    _antenna_args(p_sdof)

    p_design = sub.add_parser("design", help="build one precoder design and report it")
    _antenna_args(p_design)
    p_design.add_argument("--seed", type=int, default=0, help="master seed")
    p_design.add_argument("--out", default="-", help="output path for the JSON report ('-' = stdout)")

    p_sim = sub.add_parser("simulate", help="Monte Carlo power sweep")
    _antenna_args(p_sim)
    p_sim.add_argument("--trials", type=int, default=30, help="Monte Carlo trials (default %(default)s)")
    p_sim.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
    p_sim.add_argument(
        "--mode", choices=sorted(_MODES), default=EveMode.TIME_VARYING.value,
        help="eavesdropper model (default %(default)s)",
    )
    p_sim.add_argument("--alpha", type=float, default=0.5, help="jamming power fraction (default %(default)s)")
    p_sim.add_argument("--p-start", type=float, default=60.0, help="grid start, SNR in dB (default %(default)s)")
    p_sim.add_argument("--p-stop", type=float, default=100.0, help="grid stop, SNR in dB (default %(default)s)")
    p_sim.add_argument("--p-step", type=float, default=10.0, help="grid step in dB (default %(default)s)")
    p_sim.add_argument(
        "--threads", type=int, default=1,
        help="worker processes, this one and forked ones, at most the CPUs this process may use "
        "and one per stack of trials (default %(default)s)",
    )
    p_sim.add_argument("--csv", default="-", help="CSV output path, '-' for stdout (default %(default)s)")
    p_sim.add_argument("--summary", default="-", help="JSON summary path, '-' for stdout (default %(default)s)")

    p_verify = sub.add_parser(
        "verify",
        help="run the self-check suites",
        description=(
            "Run the self-check suites: closed-form consistency, allocation audits and "
            "precoder invariants (and with --full, Monte Carlo slope smoke tests). The "
            "precoder families are checked in forked worker processes, at most one per CPU "
            "this process may run on; the report does not depend on their number."
        ),
    )
    p_verify.add_argument(
        "--max-antennas", type=int, default=5,
        help=f"largest antenna count checked, 1 to {_ANTENNAS_MAX} (default %(default)s)",
    )
    p_verify.add_argument(
        "--seeds", type=int, default=20,
        help=f"channel seeds per configuration, 1 to {_SEEDS_MAX} (default %(default)s)",
    )
    p_verify.add_argument("--full", action="store_true", help="include Monte Carlo slope smoke tests")
    p_verify.add_argument("--out", default=None, help="also write the JSON report here")

    return parser


def _parse_config_arg(args) -> AntennaConfig:
    try:
        return AntennaConfig(args.m1, args.m2, args.n, args.ne)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc


def _sampled_config(args) -> AntennaConfig:
    """The antenna flags' config, refused unless one trial's draw and build fit ``_MEMORY_BYTES_MAX``."""
    config = _parse_config_arg(args)
    need = trial_bytes(config, allocate_jamming(config))
    if need > _MEMORY_BYTES_MAX:
        raise _UsageError(
            f"--m1 {config.m1} --m2 {config.m2} --n {config.n} --ne {config.n_e}: one trial's "
            f"channels and precoder build take about {need / 1e9:.3g} GB, more than the "
            f"{_MEMORY_BYTES_MAX / 1e9:g} GB a run may hold"
        )
    return config


class _UsageError(Exception):
    pass


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def render_csv(result) -> str:
    """A sweep's rates as CSV text: fixed header, '.' decimals, repr round-tripping.

    Values are formatted as Python floats: a NumPy scalar's repr is not a number.
    """
    lines = ["p_db,trial,legit_rate_bits,eve_leakage_bits"]
    trials = [str(t) for t in range(result.legit.shape[0])]
    columns = zip(result.grid.tolist(), result.legit.T.tolist(), result.leakage.T.tolist())
    for p, legit, leakage in columns:
        lines += map(",".join, zip(repeat(repr(p)), trials, map(repr, legit), map(repr, leakage)))
    return "\n".join(lines) + "\n"


def cmd_sdof(args) -> int:
    config = _parse_config_arg(args)
    value = sum_sdof(config)
    label = classify(config)
    b1, b2, b3 = upper_bounds(config)
    alloc = allocate_jamming(config)
    print(f"D_s = {value} ({value.value:g})")
    print(f"regime: {label.regime.value} ({label.matched_condition})")
    print(f"bounds: m1+m2-n_e = {b1}; (max(m1,n)+max(m2,n)-n_e)/2 = {b2}; n = {b3}")

    def side(entries):
        if not entries:
            return "none"
        return ", ".join(f"{method.value} {paper_units(count)}" for method, count in entries)

    print(
        f"allocation: tx1 [{side(alloc.tx1)}], tx2 [{side(alloc.tx2)}], "
        f"j_s = {paper_units(alloc.j_s)}, "
        f"d1 = {paper_units(alloc.d1)}, d2 = {paper_units(alloc.d2)}"
    )
    return 0


def cmd_design(args) -> int:
    config = _sampled_config(args)
    try:
        rngs = [RngStream(args.seed)]
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    # A stack of one trial: the report shows member 0 of every array, and
    # the eavesdropper of channel use 0, as a sweep's first use sees it.
    ch = sample_channels(config, rngs, EveMode.TIME_VARYING)
    alloc = allocate_jamming(config)
    audit = audit_allocation(alloc, config)
    factors = DrawFactors(ch)
    pre = build_precoders(ch, alloc, rngs, _factors=factors)
    set_audit = audit_set(factors, pre, ch)
    u_rank, legit_rank, eve_rank = set_audit.ranks()[:, 0].tolist()
    doc = {
        "config": {"m1": config.m1, "m2": config.m2, "n": config.n, "ne": config.n_e},
        "seed": args.seed,
        "sdof": str(sum_sdof(config)),
        "allocation": {
            "tx1": [[m.value, paper_units(c)] for m, c in alloc.tx1],
            "tx2": [[m.value, paper_units(c)] for m, c in alloc.tx2],
            "j_s": paper_units(alloc.j_s),
            "d1": paper_units(alloc.d1),
            "d2": paper_units(alloc.d2),
            "audit_passed": audit.ok,
            "audit": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in audit.checks
            ],
        },
        "channel": {
            "h1": _encode_matrix(ch.h1[0]),
            "h2": _encode_matrix(ch.h2[0]),
            "g1": _encode_matrix(ch.g1[0]),
            "g2": _encode_matrix(ch.g2[0]),
        },
        "precoders": {
            "v1_l": _encode_matrix(pre.v1_l[0]),
            "v1_j": _encode_matrix(pre.v1_j[0]),
            "v2_l": _encode_matrix(pre.v2_l[0]),
            "v2_j": _encode_matrix(pre.v2_j[0]),
            "u": _encode_matrix(pre.u[0]),
        },
        "residuals": {
            "nullspace": _fmt(pre.report.nullspace_residual[0]),
            "alignment": _fmt(pre.report.alignment_residual[0]),
            "unitarity": _fmt(set_audit.unitarity_residual[0]),
            "zero_forcing": _fmt(set_audit.zero_forcing_residual[0]),
        },
        "ranks": {
            "u": u_rank,
            "legit_post_projection": legit_rank,
            "eavesdropper_jamming": eve_rank,
        },
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _finite(value: float, flag: str) -> float:
    """``value`` of the float ``flag``, or a usage error unless it is finite."""
    if not math.isfinite(value):
        raise _UsageError(f"{flag} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class _RunPlan:
    """What a simulate run derives from its validated flags."""

    config: AntennaConfig
    grid: list
    sig: SignalParams


def _validate_run(args) -> _RunPlan:
    """Check every run setting before any sampling; the first bad one is a usage error."""
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    start = _finite(args.p_start, "--p-start")
    stop = _finite(args.p_stop, "--p-stop")
    step = _finite(args.p_step, "--p-step")
    if step <= 0:
        raise _UsageError(f"--p-step must be positive, got {step!r}")
    if stop < start:
        raise _UsageError(f"--p-stop must be at least --p-start ({start!r}), got {stop!r}")
    # Counted before the list is built; a span past the float range counts inf.
    points = np.floor((stop - start) / step + 1e-9) + 1
    if not points <= _GRID_POINTS_MAX:
        raise _UsageError(
            f"power grid from {start} to {stop} dB in steps of {step} dB has more than "
            f"{_GRID_POINTS_MAX} points"
        )
    if points < 3:
        raise _UsageError(
            f"power grid from {start} to {stop} dB in steps of {step} dB has {int(points)} "
            "point(s), the slope needs at least 3"
        )
    if args.trials * points > _SAMPLES_MAX:
        raise _UsageError(
            f"--trials {args.trials} over {int(points)} grid points is more than "
            f"{_SAMPLES_MAX} samples"
        )
    grid = [start + i * step for i in range(int(points))]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise _UsageError(f"power grid step of {step} dB is below the float spacing at {start} dB")
    if args.threads < 1:
        raise _UsageError(f"--threads must be at least 1, got {args.threads}")
    config = _sampled_config(args)
    try:
        RngStream(args.seed)
        # Every grid point must be a float power ...
        sig = SignalParams.from_db(grid, _finite(args.alpha, "--alpha"))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    # ... and so must the per-stream signal-to-noise ratios it splits into.
    alloc = allocate_jamming(config)
    finite = np.isfinite(sig.stream_snrs(alloc.d_total, alloc.total_streams)).all(axis=0)
    if not finite.all():
        raise _UsageError(f"per-stream SNR at {grid[np.argmin(finite)]} dB is past the float range")
    return _RunPlan(config, grid, sig)


def cmd_simulate(args) -> int:
    plan = _validate_run(args)
    config = plan.config
    mode = _MODES[args.mode]
    result = sweep(
        config,
        plan.sig,
        plan.grid,
        trials=args.trials,
        master_seed=args.seed,
        mode=mode,
        threads=args.threads,
    )
    csv_text = render_csv(result)

    # The slope is regressed over the whole grid.
    window = (plan.grid[0], plan.grid[-1])
    legit, leakage = estimate_dof(result, window)
    theory = sum_sdof(config)
    difference = abs(legit.slope - theory.value)
    summary = {
        "config": {"m1": config.m1, "m2": config.m2, "n": config.n, "ne": config.n_e},
        "mode": mode.value,
        "trials": args.trials,
        "master_seed": args.seed,
        "p_grid_db": plan.grid,
        "window_db": list(window),
        "legit_slope": legit.slope,
        "leakage_slope": leakage.slope,
        "r_squared": legit.r_squared,
        "theory_value": theory.value,
        "theory_value_exact": str(theory),
        "abs_difference": difference,
        "tolerance": _SLOPE_TOLERANCE,
        "passed": difference <= _SLOPE_TOLERANCE,
    }
    _write_text(args.csv, csv_text)
    _write_text(args.summary, json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    if args.max_antennas < 1 or args.seeds < 1:
        raise _UsageError("--max-antennas and --seeds must be at least 1")
    if args.max_antennas > _ANTENNAS_MAX:
        raise _UsageError(f"--max-antennas must be at most {_ANTENNAS_MAX}, got {args.max_antennas}")
    if args.seeds > _SEEDS_MAX:
        raise _UsageError(f"--seeds must be at most {_SEEDS_MAX}, got {args.seeds}")
    report = run_verification(args.max_antennas, args.seeds, args.full)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        residual = (
            f" (worst residual {check['worst_residual']:.3e})"
            if check["worst_residual"] is not None
            else ""
        )
        print(f"[{status}] {check['name']}: {check['detail']}{residual}")
    if args.out:
        _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sdof": cmd_sdof,
        "design": cmd_design,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleAllocation as exc:
        print(f"infeasible allocation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except SdofLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
