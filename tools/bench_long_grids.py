"""Paired timing of in-process ``sdoflab simulate`` on long time-varying grids: a parent revision against the working tree.

    python3 tools/bench_long_grids.py --parent HEAD --runs 5 --slug my-change

Run from the root of a checkout.  Each side runs from its own snapshot in a
scratch directory, made as ``tools/bench_pairs.py`` makes them: the parent
revision as ``git archive`` writes it, the working tree as the files git
would commit.  For every case of ``CASES``, each side runs in a fresh Python
process that imports sdoflab from its snapshot, calls
``cli.main(["simulate", ...])`` once untimed and then ``--runs`` times, each
timed with ``time.perf_counter``, and reports the times and the process's
``ru_maxrss``.  The sides alternate which runs first, case by case.  The
record, ``BENCH_<date>-<slug>.json`` in the checkout root, holds per case
and side the times, their median, their interquartile range and
``ru_maxrss``, the change's percent difference in median time, and whether
the two sides wrote byte-identical CSV and summary files.  A difference in
medians within the sides' interquartile ranges is not told from noise.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, git, iqr, machine, snapshot_parent, snapshot_worktree

# (name, (m1, m2, n, n_e), trials, grid step in dB): every grid runs from 60
# to 100 dB with a time-varying eavesdropper on one thread, so a step of 0.5
# gives 81 points, 0.2 gives 201 and 0.01 gives 4,001.
CASES = (
    ("2231-81pt-30tr", (2, 2, 3, 1), 30, 0.5),
    ("4463-81pt-30tr", (4, 4, 6, 3), 30, 0.5),
    ("2231-201pt-30tr", (2, 2, 3, 1), 30, 0.2),
    ("4463-201pt-30tr", (4, 4, 6, 3), 30, 0.2),
    ("4463-4001pt-16tr", (4, 4, 6, 3), 16, 0.01),
)
SEED = 1

# Runs in the snapshot: one untimed call, then the timed ones.
CHILD = r"""
import json, resource, sys, time
from sdoflab import cli
args, runs = json.loads(sys.argv[1]), int(sys.argv[2])
times = []
for i in range(runs + 1):
    start = time.perf_counter()
    code = cli.main(args)
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.exit(code)
    if i:
        times.append(elapsed)
print(json.dumps({"times": times, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--slug", required=True, help="name part of the output file")
    parser.add_argument("--change", default="", help="one-line description of the change")
    parser.add_argument("--runs", type=int, default=5, help="timed runs per case and side (default 5)")
    parser.add_argument("--scratch", default=None, help="directory for the snapshots (default: a temporary one)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be positive")
    return args


def simulate_args(config, trials: int, step: float, out: Path) -> list[str]:
    m1, m2, n, n_e = config
    return [
        "simulate",
        "--m1", str(m1), "--m2", str(m2), "--n", str(n), "--ne", str(n_e),
        "--trials", str(trials), "--seed", str(SEED),
        "--mode", "time_varying_eve", "--threads", "1",
        "--p-start", "60", "--p-stop", "100", "--p-step", str(step),
        "--csv", str(out.with_suffix(".csv")), "--summary", str(out.with_suffix(".json")),
    ]


def run_side(root: Path, args: list[str], runs: int) -> dict:
    """The times, their median and IQR and ``ru_maxrss`` of one side's process, or its exit code and error."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(args), str(runs)],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        return {"exit": done.returncode, "error": done.stderr[-500:]}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    times = result["times"]
    return {"exit": 0, "median_s": statistics.median(times), "iqr_s": iqr(times), **result}


def main(argv=None) -> int:
    args = parse_args(argv)
    parent_commit = git("rev-parse", args.parent).decode().strip()
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="bench-long-grids-"))
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
        "what": "in-process `sdoflab simulate` (cli.main) on time-varying grids, at the parent commit and at this change",
        "method": (
            f"per case and side, one fresh process: one untimed call, then {args.runs} calls timed "
            "with time.perf_counter; median and interquartile range (statistics.quantiles(n=4, "
            "method='inclusive')) of the timed calls; ru_maxrss of the process "
            "(kB on Linux). Sides alternate which runs first, case by case. The parent ran from a "
            "`git archive` copy of its commit, the change from a copy of the working tree "
            "(tools/bench_long_grids.py). Every call writes its CSV and summary; `outputs_identical` "
            "compares the two sides' files byte for byte."
        ),
        "parent_commit": parent_commit,
        "change": args.change,
        "machine": machine(),
        "cases": {},
    }
    for index, (name, config, trials, step) in enumerate(CASES):
        entry = {"config": list(config), "trials": trials, "p_step_db": step, "points": round(40 / step) + 1}
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            out = scratch / f"{side}-{name}"
            entry[side] = run_side(sides[side], simulate_args(config, trials, step, out), args.runs)
            print(f"{name} {side}: {entry[side].get('median_s')} s median, "
                  f"{entry[side].get('iqr_s')} s IQR, "
                  f"{entry[side].get('maxrss_kb')} kB maxrss, exit {entry[side]['exit']}")
        if entry["parent"]["exit"] == 0 and entry["change"]["exit"] == 0:
            before, after = entry["parent"]["median_s"], entry["change"]["median_s"]
            entry["change_pct"] = 100.0 * (after / before - 1.0)
            entry["outputs_identical"] = all(
                (scratch / f"parent-{name}{suffix}").read_bytes()
                == (scratch / f"change-{name}{suffix}").read_bytes()
                for suffix in (".csv", ".json")
            )
        record["cases"][name] = entry
    out = ROOT / f"BENCH_{record['date']}-{args.slug}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
