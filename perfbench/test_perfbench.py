"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench -q

Pure checks (percentile rule, span arithmetic, import-time parsing) run
in-process; the smoke tests run every workload at ``--size tiny``,
untraced and traced, and check the printed result against
BENCHMARK.json.
"""

from __future__ import annotations

import contextvars
import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- percentile rule ---------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 1001))  # 1000 samples
    assert run.tail_percentile(samples) == (99.0, 990)
    # 999 samples leave only 9 beyond p99, so the rule falls to p95.
    assert run.tail_percentile(samples[:999]) == (95.0, 950)
    assert run.tail_percentile(list(range(1, 21))) == (50.0, 10)
    # Fewer than 11 samples: no percentile qualifies, report the max.
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (None, 3.0)


def test_percentile_is_nearest_rank():
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.percentile([1, 2, 3, 4], 50) == 2
    assert run.percentile([7], 99) == 7


# -- span arithmetic ---------------------------------------------------------


def span(span_id, start, end, parent=0):
    return {"id": span_id, "name": "x", "start": start, "end": end,
            "parent": parent, "request": None, "attrs": {}}


def test_self_time_subtracts_children():
    spans = [span(1, 0, 100), span(2, 10, 30, 1), span(3, 50, 60, 1),
             span(4, 12, 20, 2)]
    assert self_times(spans) == {1: 70, 2: 12, 3: 10, 4: 8}


def test_self_time_counts_overlapping_children_once():
    # Concurrent children (e.g. two requests on one event loop) overlap;
    # a child running past its parent's end is clipped.
    spans = [span(1, 0, 100), span(2, 10, 50, 1), span(3, 40, 70, 1),
             span(4, 90, 130, 1)]
    assert self_times(spans)[1] == 100 - 60 - 10


def test_tracer_records_parent_and_request_across_threads():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    def in_thread():
        with tracer.span("thread"):
            pass

    with tracer.span("outer", request=7):
        with tracer.span("inner"):
            pass
        context = contextvars.copy_context()
        worker = threading.Thread(target=context.run, args=(in_thread,))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    by_name = {s["name"]: s for s in tracer.spans}
    for name in ("inner", "thread"):
        assert by_name[name]["parent"] == by_name["outer"]["id"]
        assert by_name[name]["request"] == 7
    with tracer.span("after"):
        pass
    assert {s["name"]: s for s in tracer.spans}["after"]["parent"] == 0


def test_span_metrics_attribute_self_time_without_inflation():
    spans = [
        {"id": 1, "name": "analysis.build", "start": 0, "end": 10_000,
         "parent": 0, "request": None, "attrs": {"alg": "FP-TS", "ok": True}},
        {"id": 2, "name": "overhead.inflate", "start": 1_000, "end": 4_000,
         "parent": 1, "request": None, "attrs": {}},
    ]
    counters = {"analysis": {"probes": 5}, "batch": {"lanes": 0}}
    metrics = layers.span_metrics([{"spans": spans, "counters": counters}])
    assert metrics["analysis.fpts_self_s"] == pytest.approx(7e-6)
    assert metrics["overhead.inflate_s"] == pytest.approx(3e-6)
    assert metrics["analysis.fpts_accept_ratio"] == 1.0
    assert metrics["analysis.probes"] == 5


def test_parse_importtime():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 | encodings\n"
        "import time:      2000 |      50000 |     numpy\n"
        "import time:       500 |      60000 |   repro.model\n"
        "import time:       300 |      90000 | repro\n"
        "import time:       200 |       5000 | repro.cli\n"
    )
    metrics = layers.parse_importtime(stderr)
    assert metrics["import.total_ms"] == 95.0
    assert metrics["import.numpy_ms"] == 50.0
    assert metrics["import.repro.model_ms"] == 60.0
    assert metrics["import.repro.kernel_ms"] == 0.0


# -- BENCHMARK.json schema ---------------------------------------------------


def test_declared_names_are_valid_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        run.WORKLOADS)


# -- smoke runs of every workload -------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, name


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "manifest.json").write_bytes((HERE / "manifest.json")
                                          .read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
