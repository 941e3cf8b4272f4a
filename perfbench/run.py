"""sdoflab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sweep-tv-dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; sdoflab is imported from its ``src``.
With ``--trace 0`` the workload's passes run untraced for about
``--seconds`` seconds and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are reported.  Every pass's outputs are checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 means every check passed, 1 that
some check failed, 2 that the command or the checkout is unusable.

Times are reported in reference seconds.  A fixed NumPy kernel
(``workloads.reference_time``) runs before the first pass, after every
step of a pass and after every set-up probe.  A step's time is multiplied
by ``REFERENCE_S`` over the mean of the kernel times on either side of it;
set-up time by ``REFERENCE_S`` over the median kernel time.  A shared
host's speed can drift by tens of percent within a minute; rescaling keeps
runs comparable.  The raw seconds and kernel times are in the manifest
line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from spans import LayerSummary, Tracer, percentile, summarize, union_length

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("sweep-tv-dense", "verify-precoders", "simulate-static-threads2")
# BLAS and OpenMP pools are pinned to one thread, so a workload uses at
# most the worker threads it asks sdoflab for.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 15
MIN_PASSES = 2
# Nominal duration of the reference kernel: the machine speed at which
# reference seconds are stated (its typical time on an idle 2 GHz Xeon vCPU).
REFERENCE_S = 0.07

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "builds_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Layer key -> statistics reported for it.
LAYER_STATS = {
    "channel.sample_channels": ("calls", "self_s", "p50_us"),
    "kernels.logdet": ("calls", "self_s", "p50_us"),
    "simulate.legit_rate": ("self_s",),
    "simulate.eve_leakage": ("self_s",),
    "precoding.build": ("calls", "self_s", "p50_us", "p99_us"),
    "precoding.leakage_rank": ("self_s",),
    "subspaces": ("calls", "self_s"),
    "sdof.allocate_jamming": ("calls", "self_s"),
}
# Layers reported by their inclusive time per pass.
INCLUSIVE = (
    "verify.check_theory",
    "verify.check_allocations",
    "verify.check_precoders",
    "simulate.estimate_dof",
    "cli.render_csv",
)
STAT_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}
PERCENTILES = {"p50_us": 50.0, "p99_us": 99.0}
PER_LAYER = {
    **{f"{key}.{stat}": STAT_UNITS[stat] for key, stats in LAYER_STATS.items() for stat in stats},
    "kernels.logdet.calls_per_sample": "calls/sample",
    "subspaces.calls_per_build": "calls/build",
    **{f"{key}.s": "s" for key in INCLUSIVE},
    "cli.csv_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.unmeasured": "count",
}


@dataclass
class Pass:
    """One timed pass: raw step seconds, its mean factor to reference seconds, its spans."""

    steps: list[float]
    scale: float
    spans: list | None
    csv_bytes: int

    @property
    def wall(self) -> float:
        return sum(self.steps)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")
    return args


def measure_setup(name: str, tmp: Path, reference_time) -> tuple[list[float], list[float]]:
    """Raw seconds of fresh interpreters that import and warm up, and the kernel times around them.

    A probe is short next to the noise in one kernel time, so set-up is
    rescaled by the median kernel time rather than probe by probe.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, references = [], [reference_time()]
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(tmp)],
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(float(done.stdout.split()[-1]) - start)
        references.append(reference_time())
    return times, references


def run_passes(workload, seconds: float, tracer, reference_time):
    """Run passes until another would overrun ``seconds``; odd passes are traced.

    The reference kernel runs after every step, so each step's time is
    rescaled by the kernel times on either side of it.
    """
    passes, checks = [], []
    start = time.perf_counter()
    before = reference_time()
    references = [before]
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        outcome, steps, scaled = [], [], 0.0
        for step in workload.steps(index):
            with tracer.patched() if traced else nullcontext():
                t0 = time.perf_counter()
                outcome.append(step())
                elapsed = time.perf_counter() - t0
            after = reference_time()
            references.append(after)
            steps.append(elapsed)
            scaled += elapsed * 2 * REFERENCE_S / (before + after)
            before = after
        spans = tracer.take() if traced else None
        checks += workload.check(outcome)
        done = Pass(steps, scaled / sum(steps), spans, workload.pass_bytes(outcome))
        passes.append(done)
        index += 1
        if index >= MIN_PASSES and time.perf_counter() - start + done.wall > seconds:
            return passes, checks, references


def end_to_end_metrics(workload, passes, setup) -> dict:
    setup_times, references = setup
    wall = statistics.median(p.wall * p.scale for p in passes)
    return {
        "setup_s": statistics.median(setup_times) * REFERENCE_S / statistics.median(references),
        "wall_s": wall,
        "builds_per_s": workload.builds_per_pass / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(workload, passes, unmeasured) -> dict:
    """Per-layer numbers: medians over traced passes, percentiles over all their calls."""
    from workloads import ORCHESTRATION

    traced = [p for p in passes if p.spans is not None]
    untraced = [p for p in passes if p.spans is None]
    summaries = [(summarize(p.spans), p.scale) for p in traced]
    empty = LayerSummary()

    def per_pass(fn):
        return statistics.median(fn(s, scale) for s, scale in summaries)

    out = {}
    for key, stats in LAYER_STATS.items():
        durations = [d * scale for s, scale in summaries for d in s.get(key, empty).durations]
        for stat in stats:
            if stat == "calls":
                value = per_pass(lambda s, scale: s.get(key, empty).calls)
            elif stat == "self_s":
                value = per_pass(lambda s, scale: s.get(key, empty).self_s * scale)
            else:
                value = percentile(durations, PERCENTILES[stat]) * 1e6
            out[f"{key}.{stat}"] = value
    samples = workload.samples_per_pass
    out["kernels.logdet.calls_per_sample"] = (
        out["kernels.logdet.calls"] / samples if samples else 0.0
    )
    builds = out["precoding.build.calls"]
    out["subspaces.calls_per_build"] = out["subspaces.calls"] / builds if builds else 0.0
    for key in INCLUSIVE:
        out[f"{key}.s"] = per_pass(lambda s, scale: s.get(key, empty).total_s * scale)
    out["cli.csv_bytes"] = statistics.median(p.csv_bytes for p in traced)
    traced_wall = statistics.median(p.wall * p.scale for p in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_frac"] = (
        traced_wall / statistics.median(p.wall * p.scale for p in untraced) - 1.0
    )
    out["trace.coverage"] = statistics.median(
        union_length((s.start, s.end) for s in p.spans if s.key not in ORCHESTRATION) / p.wall
        for p in traced
    )
    out["trace.unmeasured"] = len(unmeasured)
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def manifest(args, workload, passes, references, setup, unmeasured) -> dict:
    import numpy
    import sdoflab
    from sdoflab import kernels

    raw = {"step_s": [p.steps for p in passes], "reference_s": references}
    if setup is not None:
        raw["setup_s"], raw["setup_reference_s"] = setup
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "passes": len(passes),
        "git_commit": git_commit(),
        "sdoflab_version": sdoflab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {
            var: os.environ.get(var)
            for var in (*THREAD_ENV, "SDOFLAB_THREADS", "SDOFLAB_KERNEL")
        },
        "reference_s": REFERENCE_S,
        "raw": raw,
        "unmeasured_layers": unmeasured,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sdoflab" / "__init__.py").is_file():
        print(f"error: no sdoflab sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    # Imported only now: NumPy reads the thread variables when it loads.
    from workloads import ENTRY_POINTS, WORKLOADS, reference_time

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        workload = WORKLOADS[args.workload](args.seed, tmp)
        reference_time()  # the first call pays NumPy's lazy set-up
        setup = None if args.trace else measure_setup(args.workload, tmp, reference_time)
        workload.warm_up()
        tracer = Tracer(ENTRY_POINTS) if args.trace else None
        passes, checks, references = run_passes(workload, args.seconds, tracer, reference_time)
        checks += workload.final_checks()

    unmeasured = tracer.unmeasured if tracer else []
    if args.trace:
        metrics = layer_metrics(workload, passes, unmeasured)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(workload, passes, setup)
        units = END_TO_END
    failed = [c for c in checks if not c.ok]
    for check in failed:
        print(f"FAILED {check.name}: {check.detail}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, trace {'on' if args.trace else 'off'}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    if not args.trace:
        samples_per_s = metrics["builds_per_s"] * workload.samples_per_pass / workload.builds_per_pass
        print(f"  {'samples_per_s':36s} {samples_per_s:.6g} 1/s")
        print(f"  {'raw wall_s':36s} {statistics.median(p.wall for p in passes):.6g} s")
    print(f"  {'error_rate':36s} {len(failed) / len(checks):.6g} ({len(failed)} of {len(checks)} operations failed)")
    print(json.dumps({"manifest": manifest(args, workload, passes, references, setup, unmeasured)}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
