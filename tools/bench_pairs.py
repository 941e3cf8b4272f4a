"""Paired benchmark record: the unmodified perfbench at a parent revision and at the working tree.

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --seconds 30 --slug my-change

Run from the root of a checkout.  Each side runs from its own snapshot in a
scratch directory: the parent revision as ``git archive`` writes it, and
the working tree as the files git would commit (tracked and untracked,
ignored ones left out).  For every workload the two sides run
``perfbench/run.py --trace 0`` in ``--pairs`` pairs, one seed per pair and
the same on both sides, alternating which side runs first; then each
workload of ``TRACED`` runs once per side with ``--trace 1``.  The
workloads and end-to-end metrics are those of ``BENCHMARK.json``.  Every
run's exit code and final JSON line are kept.  The record,
``BENCH_<date>-<slug>.json`` in the checkout root, holds the runs and,
per end-to-end metric, the medians, the parent's interquartile range, the
change's percent difference and in how many of all the pairs the change
was better; a run that exits nonzero or prints no result is listed as
crashed and loses its pair.  Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Workloads also run once per side with --trace 1, for their per-layer metrics.
TRACED = ("sweep-tv-dense", "simulate-static-threads2")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--slug", required=True, help="name part of the output file")
    parser.add_argument("--change", default="", help="one-line description of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=300, help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--scratch", default=None, help="directory for the snapshots (default: a temporary one)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1 or args.seed < 0:
        parser.error("--pairs and --seconds must be positive and --seed nonnegative")
    return args


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def snapshot_parent(rev: str, dest: Path) -> None:
    tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))).extractall(dest)


def snapshot_worktree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in listed)):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_bytes(src.read_bytes())


def run_bench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run from ``root``: its exit code and final JSON line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"attempted": 0, "failed": None, "metrics": {}}
        print(f"  run printed no result (exit {done.returncode}): {done.stderr[-500:]}", file=sys.stderr)
    return {"exit": done.returncode, **result}


def crashed(run: dict) -> bool:
    """Whether a run exited nonzero or printed no result."""
    return run["exit"] != 0 or run["failed"] is None


def summarize(parent_runs, change_runs, metrics) -> dict:
    """Medians, the parent's IQR, percent change and pair wins per end-to-end metric.

    Medians and quartiles are over the runs that reported the metric; wins
    count out of all pairs, and a pair is a win only when both runs
    reported the metric and the change's value is better.  ``failed`` sums
    the failed operations the runs reported, and ``crashed`` lists the
    pairs whose run on each side crashed.
    """
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        before = [r[name] for r in parent_runs if name in r]
        after = [r[name] for r in change_runs if name in r]
        wins = sum(
            name in p and name in c and ((c[name] < p[name]) if lower else (c[name] > p[name]))
            for p, c in zip(parent_runs, change_runs)
        )
        entry = {
            "parent_median": statistics.median(before) if before else None,
            "parent_iqr": None,
            "change_median": statistics.median(after) if after else None,
            "change_pct": None,
            "change_wins": f"{wins} of {len(parent_runs)}",
        }
        if before:
            q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive") if len(before) > 1 else (before[0],) * 3
            entry["parent_iqr"] = q3 - q1
        if before and after:
            entry["change_pct"] = 100.0 * (entry["change_median"] / entry["parent_median"] - 1.0)
        out[name] = entry
    out["failed"] = {
        "parent": sum(r["failed"] or 0 for r in parent_runs),
        "change": sum(r["failed"] or 0 for r in change_runs),
    }
    out["crashed"] = {
        "parent": [r["pair"] for r in parent_runs if crashed(r)],
        "change": [r["pair"] for r in change_runs if crashed(r)],
    }
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True
    ).stdout.strip()
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    parent_commit = git("rev-parse", args.parent).decode().strip()
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="bench-pairs-"))
    sides = {"parent": scratch / "parent", "change": scratch / "change"}
    for path in sides.values():
        if path.exists() and any(path.iterdir()):
            print(f"error: {path} is not empty", file=sys.stderr)
            return 2
        path.mkdir(parents=True, exist_ok=True)
    snapshot_parent(parent_commit, sides["parent"])
    snapshot_worktree(sides["change"])

    record = {
        "date": datetime.date.today().isoformat(),
        "what": "perfbench/run.py, unmodified, at the parent commit and at this change",
        "method": (
            f"{args.pairs} pairs of {args.seconds} s `--trace 0` runs per workload, seeds "
            f"{args.seed}-{args.seed + args.pairs - 1} (one seed per pair, the same on both sides), "
            "alternating which side runs first; the parent ran from a `git archive` copy of its "
            "commit, the change from a copy of the working tree (tools/bench_pairs.py). Quartiles use "
            "statistics.quantiles(n=4, method='inclusive'). Times are perfbench reference seconds. "
            "A pair is a win when both runs reported the metric and the change's value is "
            "better; wins count out of all pairs, and `crashed` lists the pairs whose run "
            "exited nonzero or printed no result."
        ),
        "parent_commit": parent_commit,
        "change": args.change,
        "machine": machine(),
        "workloads": {},
        "traced": {"method": f"one {args.seconds} s `--trace 1` run per side, seed {args.seed}"},
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_bench(sides[side], workload, seed, args.seconds, trace=0)
                values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
                runs[side].append(
                    {"pair": pair, "seed": seed, "exit": result["exit"],
                     "attempted": result.get("attempted"), "failed": result.get("failed"), **values}
                )
                print(f"{workload} pair {pair} {side}: {values.get('wall_s')} wall_s, exit {result['exit']}")
        record["workloads"][workload] = {
            side: {"runs": runs[side]} for side in ("parent", "change")
        } | {"summary": summarize(runs["parent"], runs["change"], metrics)}
    for workload in TRACED:
        record["traced"][workload] = {}
        for side in ("parent", "change"):
            result = run_bench(sides[side], workload, args.seed, args.seconds, trace=1)
            record["traced"][workload][side] = {
                "seed": args.seed,
                "exit": result["exit"],
                "failed": result.get("failed"),
                "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
            }
    out = ROOT / f"BENCH_{record['date']}-{args.slug}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
