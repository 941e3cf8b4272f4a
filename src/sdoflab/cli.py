"""Command-line front end.

Subcommands
-----------
sdof       evaluate the closed form for one antenna configuration
design     sample a channel, build precoders, emit a JSON design report
simulate   Monte Carlo power sweep; CSV samples plus a JSON summary
verify     run the library's self-checks; exit 0 iff everything passes

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 infeasible
allocation, 4 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import EveMode, RngStream, SignalParams, channel_use, sample_channels
from .errors import InfeasibleAllocation, SdofLabError
from .precoding import build_precoders, leakage_rank
from .sdof import (
    AntennaConfig,
    allocate_jamming,
    audit_allocation,
    classify,
    sum_sdof,
    upper_bounds,
)
from .simulate import _resolve_threads, estimate_dof, per_stream_powers, sweep
from .verify import run_verification

_MODES = {m.value: m for m in EveMode}
_DEFAULT_MODE = EveMode.TIME_VARYING.value
_DEFAULT_GRID = (60.0, 100.0, 10.0)
_DEFAULT_WINDOW = (60.0, 100.0)
_DEFAULT_SLOPE_TOL = 0.15


def _fmt(x: float) -> str:
    """Decimal string with 17 significant digits (round-trips exactly)."""
    return format(float(x), ".17g")


def _encode_matrix(mat: np.ndarray) -> dict:
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "re": [[_fmt(v) for v in row] for row in mat.real],
        "im": [[_fmt(v) for v in row] for row in mat.imag],
    }


def decode_matrix(doc: dict) -> np.ndarray:
    """Inverse of the design-report matrix encoding."""
    re = np.array([[float(v) for v in row] for row in doc["re"]], dtype=float)
    im = np.array([[float(v) for v in row] for row in doc["im"]], dtype=float)
    out = re + 1j * im
    return out.reshape(doc["rows"], doc["cols"])


def _antenna_args(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--m1", type=int, required=required, help="transmitter 1 antennas")
    parser.add_argument("--m2", type=int, required=required, help="transmitter 2 antennas")
    parser.add_argument("--n", type=int, required=required, help="receiver antennas")
    parser.add_argument("--ne", type=int, required=required, help="eavesdropper antenna bound")


def _build_parser() -> argparse.ArgumentParser:
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
    p_design.add_argument(
        "--mode", choices=sorted(_MODES), default=_DEFAULT_MODE, help="eavesdropper model"
    )
    p_design.add_argument("--out", default="-", help="output path for the JSON report ('-' = stdout)")

    p_sim = sub.add_parser("simulate", help="Monte Carlo power sweep")
    _antenna_args(p_sim, required=False)
    p_sim.add_argument("--config", help="JSON run configuration (flags override its values)")
    p_sim.add_argument("--trials", type=int, default=None, help="Monte Carlo trials (default 30)")
    p_sim.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p_sim.add_argument("--mode", choices=sorted(_MODES), default=None)
    p_sim.add_argument("--alpha", type=float, default=None, help="jamming power fraction (default 0.5)")
    p_sim.add_argument("--sigma2", type=float, default=None, help="noise variance (default 1.0)")
    p_sim.add_argument("--p-start", type=float, default=None, help="grid start in dB (default 60)")
    p_sim.add_argument("--p-stop", type=float, default=None, help="grid stop in dB (default 100)")
    p_sim.add_argument("--p-step", type=float, default=None, help="grid step in dB (default 10)")
    p_sim.add_argument("--window-lo", type=float, default=None, help="regression window low edge (dB)")
    p_sim.add_argument("--window-hi", type=float, default=None, help="regression window high edge (dB)")
    p_sim.add_argument(
        "--tolerance", type=float, default=None,
        help=f"slope pass tolerance in DoF (default {_DEFAULT_SLOPE_TOL})",
    )
    p_sim.add_argument(
        "--threads", type=int, default=None,
        help="worker threads, at most the CPU count (default: SDOFLAB_THREADS if set, else 1)",
    )
    p_sim.add_argument("--csv", default=None, help="CSV output path ('-' = stdout, default)")
    p_sim.add_argument("--summary", default=None, help="JSON summary path ('-' = stdout, default)")

    p_verify = sub.add_parser("verify", help="run the self-check suites")
    p_verify.add_argument("--max-antennas", type=int, default=5)
    p_verify.add_argument("--seeds", type=int, default=20)
    p_verify.add_argument("--full", action="store_true", help="include Monte Carlo slope smoke tests")
    p_verify.add_argument("--out", default=None, help="also write the JSON report here")

    return parser


def _parse_config_arg(args) -> AntennaConfig:
    try:
        return AntennaConfig(args.m1, args.m2, args.n, args.ne)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc


class _UsageError(Exception):
    pass


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def render_csv(samples) -> str:
    """Samples as CSV text: fixed header, '.' decimals, repr round-tripping."""
    lines = ["p_db,trial,legit_rate_bits,eve_leakage_bits"]
    for s in samples:
        lines.append(f"{s.p_db!r},{s.trial},{s.legit_rate!r},{s.eve_leakage!r}")
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
        return ", ".join(f"{method.value} {count}" for method, count in entries)

    extension = "; two-slot extension" if alloc.needs_two_slot else ""
    print(
        f"allocation: tx1 [{side(alloc.tx1)}], tx2 [{side(alloc.tx2)}], "
        f"j_s = {alloc.j_s}, d1 = {alloc.d1}, d2 = {alloc.d2}{extension}"
    )
    return 0


def cmd_design(args) -> int:
    config = _parse_config_arg(args)
    mode = _MODES[args.mode]
    try:
        rng = RngStream(args.seed, (0, 0))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    ch = sample_channels(config, rng, mode)
    alloc = allocate_jamming(config)
    audit = audit_allocation(alloc, config)
    pre = build_precoders(config, ch, alloc, rng)
    seen = channel_use(config, ch, rng, 0, mode, pre.slots)
    doc = {
        "config": {"m1": config.m1, "m2": config.m2, "n": config.n, "ne": config.n_e},
        "seed": args.seed,
        "mode": mode.value,
        "slots": pre.slots,
        "sdof": str(sum_sdof(config)),
        "allocation": {
            "tx1": [[m.value, str(c)] for m, c in alloc.tx1],
            "tx2": [[m.value, str(c)] for m, c in alloc.tx2],
            "j_s": str(alloc.j_s),
            "d1": str(alloc.d1),
            "d2": str(alloc.d2),
            "needs_two_slot": alloc.needs_two_slot,
            "audit_passed": audit.ok,
            "audit": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in audit.checks
            ],
        },
        "channel": {
            "h1": _encode_matrix(ch.h1),
            "h2": _encode_matrix(ch.h2),
            "g1": _encode_matrix(ch.g1),
            "g2": _encode_matrix(ch.g2),
        },
        "precoders": {
            "v1_l": _encode_matrix(pre.v1_l),
            "v1_j": _encode_matrix(pre.v1_j),
            "v2_l": _encode_matrix(pre.v2_l),
            "v2_j": _encode_matrix(pre.v2_j),
            "u": _encode_matrix(pre.u),
        },
        "residuals": {
            "nullspace": _fmt(pre.report.nullspace_residual),
            "alignment": _fmt(pre.report.alignment_residual),
            "unitarity": _fmt(pre.report.unitarity_residual),
            "zero_forcing": _fmt(pre.report.zero_forcing_residual),
        },
        "ranks": {
            "u": pre.report.u_rank,
            "legit_post_projection": pre.report.legit_rank,
            "eavesdropper_jamming": leakage_rank(seen, pre),
        },
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _merge_run_settings(args) -> dict:
    settings = {
        "m1": None, "m2": None, "n": None, "ne": None,
        "trials": 30, "master_seed": 0, "mode": _DEFAULT_MODE,
        "alpha": 0.5, "sigma2": 1.0,
        "p_start_db": _DEFAULT_GRID[0], "p_stop_db": _DEFAULT_GRID[1],
        "p_step_db": _DEFAULT_GRID[2],
        "window_db": list(_DEFAULT_WINDOW),
        "slope_tolerance": _DEFAULT_SLOPE_TOL,
        "threads": None,
        "csv_out": "-", "summary_out": "-",
    }
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise _UsageError(f"cannot read run config: {exc}") from exc
        except ValueError as exc:
            raise _UsageError(f"run config is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise _UsageError("run config must be a JSON object")
        unknown = set(loaded) - set(settings)
        if unknown:
            raise _UsageError(f"unknown run-config keys: {sorted(unknown)}")
        settings.update(loaded)
    overrides = {
        "m1": args.m1, "m2": args.m2, "n": args.n, "ne": args.ne,
        "trials": args.trials, "master_seed": args.seed, "mode": args.mode,
        "alpha": args.alpha, "sigma2": args.sigma2,
        "p_start_db": args.p_start, "p_stop_db": args.p_stop, "p_step_db": args.p_step,
        "slope_tolerance": args.tolerance, "threads": args.threads,
        "csv_out": args.csv, "summary_out": args.summary,
    }
    for key, value in overrides.items():
        if value is not None:
            settings[key] = value
    window = settings["window_db"]
    if not isinstance(window, list) or len(window) != 2:
        raise _UsageError(f"window_db must be a [low, high] pair in dB, got {window!r}")
    settings["window_db"] = [
        window[0] if args.window_lo is None else args.window_lo,
        window[1] if args.window_hi is None else args.window_hi,
    ]
    return settings


def _setting(settings, key, kind):
    """settings[key] converted by ``kind`` (int or float), or a usage error.

    A JSON ``true``/``false`` is not a number, a fractional value is
    rejected as an integer rather than truncated, and a float must be finite.
    """
    value = settings[key]
    try:
        converted = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if kind is int and isinstance(value, float) and converted != value:
        converted = None
    if kind is float and converted is not None and not math.isfinite(converted):
        converted = None
    if converted is None:
        noun = "an integer" if kind is int else "a finite number"
        raise _UsageError(f"{key} must be {noun}, got {value!r}")
    return converted


@dataclass(frozen=True)
class _RunPlan:
    """A fully validated simulate run."""

    config: AntennaConfig
    trials: int
    seed: int
    mode: EveMode
    grid: list
    sig: SignalParams
    window: tuple
    threads: int
    slope_tolerance: float


def _validate_run(settings) -> _RunPlan:
    """Check every run setting before any sampling; the first bad one is a usage error."""
    for key in ("m1", "m2", "n", "ne"):
        if settings[key] is None:
            raise _UsageError(f"missing antenna count '{key}' (flag or run config)")
    counts = [_setting(settings, key, int) for key in ("m1", "m2", "n", "ne")]
    trials = _setting(settings, "trials", int)
    if trials < 1:
        raise _UsageError("trials must be at least 1")
    seed = _setting(settings, "master_seed", int)
    mode = settings["mode"]
    if not isinstance(mode, str) or mode not in _MODES:
        raise _UsageError(f"mode must be one of {sorted(_MODES)}")
    start, stop, step = (
        _setting(settings, key, float) for key in ("p_start_db", "p_stop_db", "p_step_db")
    )
    if step <= 0 or stop < start:
        raise _UsageError("power grid requires p_start_db <= p_stop_db and p_step_db > 0")
    slope_tolerance = _setting(settings, "slope_tolerance", float)
    if slope_tolerance < 0:
        raise _UsageError(f"slope_tolerance must be nonnegative, got {slope_tolerance!r}")
    try:
        # A JSON true/false edge is dropped, so the pair fails to unpack.
        lo, hi = (float(edge) for edge in settings["window_db"] if not isinstance(edge, bool))
    except (TypeError, ValueError):
        raise _UsageError(f"window_db must hold two numbers, got {settings['window_db']!r}") from None
    threads = settings["threads"]
    if threads is not None:
        threads = _setting(settings, "threads", int)
    for key in ("csv_out", "summary_out"):
        if not isinstance(settings[key], str):
            raise _UsageError(f"{key} must be a path string, got {settings[key]!r}")
    points = int(np.floor((stop - start) / step + 1e-9)) + 1
    grid = [start + i * step for i in range(points)]
    try:
        config = AntennaConfig(*counts)
        RngStream(seed)
        sig = SignalParams(
            1.0, _setting(settings, "alpha", float), _setting(settings, "sigma2", float)
        )
        # The grid's top point must be a float power.
        top = SignalParams.from_db(grid[-1], sig.alpha, sig.sigma2)
        threads = _resolve_threads(threads)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    # ... and so must the per-stream powers it splits into.
    alloc = allocate_jamming(config)
    slots = alloc.slots
    powers = per_stream_powers(slots, alloc.d_total * slots, alloc.total_streams * slots, top)
    if not all(math.isfinite(power) for power in powers):
        raise _UsageError(f"per-stream power at {grid[-1]} dB is past the float range")
    covered = sum(1 for p in grid if lo <= p <= hi)
    if covered < 3:
        raise _UsageError(
            f"regression window [{lo}, {hi}] dB covers {covered} grid point(s), need at least 3"
        )
    return _RunPlan(
        config, trials, seed, _MODES[mode], grid, sig, (lo, hi), threads, slope_tolerance
    )


def cmd_simulate(args) -> int:
    settings = _merge_run_settings(args)
    plan = _validate_run(settings)
    config = plan.config
    samples = sweep(
        config,
        plan.sig,
        plan.grid,
        trials=plan.trials,
        master_seed=plan.seed,
        mode=plan.mode,
        threads=plan.threads,
    )
    csv_text = render_csv(samples)

    legit, leakage = estimate_dof(samples, plan.window)
    theory = sum_sdof(config)
    difference = abs(legit.slope - theory.value)
    summary = {
        "config": {"m1": config.m1, "m2": config.m2, "n": config.n, "ne": config.n_e},
        "mode": plan.mode.value,
        "trials": plan.trials,
        "master_seed": plan.seed,
        "p_grid_db": plan.grid,
        "window_db": list(plan.window),
        "legit_slope": legit.slope,
        "leakage_slope": leakage.slope,
        "r_squared": legit.r_squared,
        "theory_value": theory.value,
        "theory_value_exact": str(theory),
        "abs_difference": difference,
        "tolerance": plan.slope_tolerance,
        "passed": difference <= plan.slope_tolerance,
    }
    _write_text(settings["csv_out"], csv_text)
    _write_text(settings["summary_out"], json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    if args.max_antennas < 1 or args.seeds < 1:
        raise _UsageError("--max-antennas and --seeds must be at least 1")
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
