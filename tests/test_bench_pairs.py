"""``tools/bench_pairs.summarize`` on synthetic runs: no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "builds_per_s", "better": "higher"}]


def run(pair, exit=0, failed=0, **values):
    return {"pair": pair, "seed": pair, "exit": exit, "attempted": 10, "failed": failed, **values}


def test_a_tie_counts_for_neither_side():
    parent = [run(0, wall_s=1.0, builds_per_s=5.0)]
    change = [run(0, wall_s=1.0, builds_per_s=5.0)]
    summary = bench_pairs.summarize(parent, change, METRICS)
    assert summary["wall_s"]["change_wins"] == "0 of 1"
    assert summary["builds_per_s"]["change_wins"] == "0 of 1"
    assert summary["wall_s"]["change_pct"] == 0.0


def test_a_crashed_change_run_loses_its_pair_and_leaves_the_median():
    # A perfbench run with a failed gate still prints its metrics, then exits 1.
    parent = [run(0, wall_s=1.0), run(1, wall_s=1.0)]
    change = [run(0, wall_s=0.9), run(1, exit=1, failed=3, wall_s=0.5)]
    summary = bench_pairs.summarize(parent, change, METRICS[:1])
    assert summary["wall_s"]["change_wins"] == "1 of 2"
    assert summary["wall_s"]["change_median"] == 0.9
    assert summary["failed"] == {"parent": 0, "change": 3}
    assert summary["crashed"] == {"parent": [], "change": [1]}


def test_a_run_that_printed_nothing_loses_its_pair():
    parent = [run(0, wall_s=1.0)]
    change = [{"pair": 0, "seed": 0, "exit": 1, "attempted": 0, "failed": None}]
    summary = bench_pairs.summarize(parent, change, METRICS[:1])
    assert summary["wall_s"]["change_wins"] == "0 of 1"
    assert summary["wall_s"]["change_median"] is None
    assert summary["crashed"]["change"] == [0]


def test_a_missing_metric_loses_its_pair():
    parent = [run(0, wall_s=1.0, builds_per_s=5.0), run(1, wall_s=1.0, builds_per_s=5.0)]
    change = [run(0, wall_s=0.5), run(1, wall_s=0.5, builds_per_s=6.0)]
    summary = bench_pairs.summarize(parent, change, METRICS)
    assert summary["wall_s"]["change_wins"] == "2 of 2"
    assert summary["builds_per_s"]["change_wins"] == "1 of 2"


def test_parent_iqr_is_the_inclusive_quartile_spread():
    walls = [1.0, 2.0, 3.0, 4.0, 5.0]
    parent = [run(i, wall_s=w) for i, w in enumerate(walls)]
    change = [run(i, wall_s=w - 0.5) for i, w in enumerate(walls)]
    summary = bench_pairs.summarize(parent, change, METRICS[:1])
    # Inclusive quartiles of 1..5 are 2 and 4.
    assert summary["wall_s"]["parent_iqr"] == pytest.approx(2.0)
    assert summary["wall_s"]["parent_median"] == 3.0
    assert summary["wall_s"]["change_median"] == 2.5
    assert summary["wall_s"]["change_wins"] == "5 of 5"


def test_iqr_of_one_value_is_zero():
    # bench_long_grids records it for every side, one timed run or more.
    assert bench_pairs.iqr([0.7]) == 0.0
