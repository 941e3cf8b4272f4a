"""Tests for the benchmark harness itself: span arithmetic, patching, metric names.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import sdoflab  # noqa: E402
import run  # noqa: E402
from sdoflab import simulate  # noqa: E402
from sdoflab.channel import EveMode, SignalParams  # noqa: E402
from sdoflab.sdof import AntennaConfig  # noqa: E402
from spans import Span, Tracer, percentile, self_times, summarize, union_length  # noqa: E402
from workloads import ENTRY_POINTS, SweepTimeVarying  # noqa: E402


def _sdoflab_namespace():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "sdoflab" or name.startswith("sdoflab.")
        for attr, value in vars(module).items()
    }


def _small_sweep(threads=1):
    return simulate.sweep(
        AntennaConfig(2, 2, 3, 1),
        SignalParams(1.0),
        [60.0, 80.0, 100.0],
        trials=4,
        master_seed=3,
        mode=EveMode.TIME_VARYING,
        threads=threads,
    )


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (7.0, 7.0)]) == 4.0
    assert union_length([]) == 0.0


def test_self_time_is_duration_minus_covered_part():
    root = Span("root", 0.0, 10.0)
    a = Span("a", 1.0, 4.0, root)
    b = Span("b", 3.0, 6.0, root)  # overlaps a, as a concurrent worker would
    c = Span("c", 8.0, 12.0, root)  # runs past the end of its parent
    grandchild = Span("g", 2.0, 3.0, a)
    selfs = self_times([root, a, b, c, grandchild])
    # root: [1, 6] and [8, 10] are covered, 7 of 10 seconds.
    assert selfs[id(root)] == 3.0
    assert selfs[id(a)] == 2.0
    assert selfs[id(b)] == 3.0
    assert selfs[id(c)] == 4.0
    assert selfs[id(grandchild)] == 1.0


def test_summarize_counts_reentry_into_a_layer_once():
    outer = Span("precoding.build", 0.0, 4.0)
    inner = Span("precoding.build", 0.5, 3.5, outer)
    leaf = Span("subspaces", 1.0, 2.0, inner)
    summary = summarize([outer, inner, leaf])
    build = summary["precoding.build"]
    assert build.calls == 1
    assert build.self_s == 3.0
    assert build.durations == [4.0]
    assert summary["subspaces"].calls == 1


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([], 50) == 0.0


def test_patched_restores_every_entry_point():
    before = _sdoflab_namespace()
    tracer = Tracer(ENTRY_POINTS)
    assert tracer.unmeasured == []
    with tracer.patched():
        assert simulate.legit_rate is not before["sdoflab.simulate", "legit_rate"]
        _small_sweep()
    spans = tracer.take()
    assert {"simulate.sweep", "kernels.logdet", "precoding.build"} <= {s.key for s in spans}
    after = _sdoflab_namespace()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    _small_sweep()
    assert tracer.take() == []


def test_worker_thread_spans_are_children_of_the_pool_owner():
    tracer = Tracer(ENTRY_POINTS)
    with tracer.patched():
        _small_sweep(threads=2)
    spans = tracer.take()
    (sweep,) = [s for s in spans if s.key == "simulate.sweep"]
    for span in spans:
        if span is not sweep:
            while span.parent is not None:
                span = span.parent
            assert span is sweep


def test_missing_entry_point_is_reported_unmeasured():
    gone = (
        ("sdoflab.kernels", "logdet_renamed", "kernels.logdet"),
        ("sdoflab.no_such_module", "f", "nowhere"),
    )
    entry_points = [e for e in ENTRY_POINTS if e[2] != "kernels.logdet"] + list(gone)
    tracer = Tracer(entry_points)
    assert tracer.unmeasured == ["sdoflab.kernels.logdet_renamed", "sdoflab.no_such_module.f"]
    workload = SweepTimeVarying(0, ROOT)
    passes = [run.Pass([1.0], 1.0, None, 0)]
    with tracer.patched():
        start = time.perf_counter()
        _small_sweep()
        passes.append(run.Pass([time.perf_counter() - start], 1.0, tracer.take(), 0))
    metrics = run.layer_metrics(workload, passes, tracer.unmeasured)
    assert metrics.keys() == run.PER_LAYER.keys()
    assert metrics["kernels.logdet.calls"] == 0
    assert metrics["channel.sample_channels.calls"] > 0
    assert metrics["trace.unmeasured"] == 2


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "verify-precoders", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
