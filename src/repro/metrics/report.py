"""Profile reports: machine-readable overhead anatomy + regression gate.

Turns a metrics-instrumented :class:`~repro.kernel.sim.KernelSim` run
into the paper's Section-3 measurement artefacts:

* per-primitive event counts and simulated-time costs, keyed by the
  paper's taxonomy (``rls``, ``sch``, ``cnt1``, ``cnt2``);
* queue-operation cost curves (the paper's δ for the ready queue, θ for
  the sleep queue) as a function of the per-core task count N;
* wall-clock self-profiling of the simulator's own handlers.

:func:`build_report` assembles the JSON document the ``repro profile``
CLI emits; :func:`compare_reports` is the tolerance-band comparison the
``benchmarks/profile_regression.py`` harness and the CI job gate on.

Comparison contract (see :mod:`repro.metrics.registry`): metrics named
``sim_*`` are simulated-time quantities and must match a golden baseline
**exactly** — any drift means simulator behaviour changed.  Metrics
named ``wall_*`` are wall-clock self-measurements: their event *counts*
are still deterministic and compared exactly, but their nanosecond
totals are machine-dependent and only checked within a relative
tolerance band (and only above a noise floor).  Everything else is
informational and never gated.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Mapping, Optional, Tuple

from repro.metrics.registry import Counter, Gauge, Histogram, MetricsRegistry

#: Report layout version; bump when sections or metric names change so a
#: stale golden baseline fails loudly instead of half-matching.
PROFILE_SCHEMA_VERSION = 1

#: Simulator kernel-op kind -> paper primitive (Figure 1 taxonomy).
#: ``migrate_in`` is the destination core's release-path work for an
#: arriving subtask; ``demote`` is an overrun-policy ready-queue insert,
#: charged like the cnt2 re-queue it models.
PRIMITIVE_OF_OP: Dict[str, str] = {
    "release": "rls",
    "migrate_in": "rls",
    "sched": "sch",
    "cnt_in": "cnt1",
    "finish": "cnt2",
    "migrate_out": "cnt2",
    "demote": "cnt2",
}

#: Relative tolerance for wall-clock nanosecond totals.
DEFAULT_WALL_TOLERANCE = 0.20

#: Wall totals below this (ns) are pure timer noise; never gated.
WALL_NOISE_FLOOR_NS = 20_000


def build_report(
    registry: MetricsRegistry,
    scenario: Mapping,
    summary: Optional[Mapping] = None,
) -> dict:
    """Assemble the profile-report document.

    ``scenario`` identifies what was profiled (inputs, seeds, duration);
    ``summary`` carries headline simulation outputs (misses, releases).
    Both are embedded verbatim so a report is self-describing.
    """
    return {
        "schema": PROFILE_SCHEMA_VERSION,
        "environment": {
            "python": sys.version.split()[0],
            "platform": sys.platform,
        },
        "scenario": dict(scenario),
        "summary": dict(summary or {}),
        "metrics": registry.as_dict(),
        "derived": {
            "primitives": primitive_anatomy(registry),
            "queue_ops": queue_op_curves(registry),
        },
    }


def primitive_anatomy(registry: MetricsRegistry) -> dict:
    """Per-primitive (rls/sch/cnt1/cnt2) counts and simulated-time cost.

    Folds the per-op-kind counters the simulator records into the
    four-name taxonomy the paper's Figure 1 uses.
    """
    anatomy: Dict[str, Dict[str, int]] = {}
    for metric in registry:
        if not isinstance(metric, Counter):
            continue
        labels = dict(metric.labels)
        op = labels.get("op")
        if op is None:
            continue
        primitive = PRIMITIVE_OF_OP.get(op)
        if primitive is None:
            continue
        slot = anatomy.setdefault(
            primitive, {"count": 0, "sim_ns": 0}
        )
        if metric.name == "sim_kernel_ops_total":
            slot["count"] += metric.value
        elif metric.name == "sim_kernel_op_ns_total":
            slot["sim_ns"] += metric.value
    for slot in anatomy.values():
        slot["mean_ns"] = (
            round(slot["sim_ns"] / slot["count"], 3) if slot["count"] else 0.0
        )
    return {name: anatomy[name] for name in sorted(anatomy)}


def queue_op_curves(registry: MetricsRegistry) -> dict:
    """δ/θ-vs-N: wall-clock queue-op cost keyed by per-core task count.

    Returns ``{"ready": {N: {...}}, "sleep": {N: {...}}}`` with count,
    mean and max nanoseconds per operation — the shape of the paper's
    Table 1, measured on this implementation's own structures while the
    simulator drives them.
    """
    curves: Dict[str, Dict[int, dict]] = {"ready": {}, "sleep": {}}
    for metric in registry:
        if not isinstance(metric, Histogram):
            continue
        if metric.name != "wall_queue_op_ns":
            continue
        labels = dict(metric.labels)
        queue = labels.get("queue")
        if queue not in curves or "n" not in labels:
            continue
        n = int(labels["n"])
        slot = curves[queue].setdefault(
            n, {"count": 0, "sum_ns": 0, "max_ns": 0}
        )
        slot["count"] += metric.count
        slot["sum_ns"] += metric.sum
        if metric.max > slot["max_ns"]:
            slot["max_ns"] = metric.max
    result: Dict[str, dict] = {}
    for queue, by_n in curves.items():
        result[queue] = {}
        for n in sorted(by_n):
            slot = by_n[n]
            slot["mean_ns"] = (
                round(slot["sum_ns"] / slot["count"], 3)
                if slot["count"]
                else 0.0
            )
            result[queue][str(n)] = slot
    return result


def record_analysis_stats(
    registry: MetricsRegistry,
    stats,
    mode: str,
) -> None:
    """Publish an :class:`repro.analysis.incremental.AnalysisStats`
    snapshot as ``ana_*`` counters, labelled by analysis ``mode``
    (e.g. ``"incremental"`` or ``"oracle"``).

    The ``ana_*`` family follows the ``sim_*`` convention — the numbers
    are deterministic functions of the task set and analysis mode, so a
    drift under a fixed scenario means analysis behaviour changed — but
    the family is *not* gated by :func:`compare_reports`: iteration
    counts legitimately differ between modes (that asymmetry is the
    point of the ``incremental-vs-oracle`` differential pair).
    """
    snapshot = stats.snapshot() if hasattr(stats, "snapshot") else dict(stats)
    registry.counter("ana_fixpoint_iterations_total", mode=mode).inc(
        snapshot["fixpoint_iterations"]
    )
    registry.counter("ana_rta_probes_total", mode=mode).inc(
        snapshot["probes"]
    )
    registry.counter("ana_budget_searches_total", mode=mode).inc(
        snapshot["budget_searches"]
    )
    registry.counter("ana_edf_tests_total", mode=mode).inc(
        snapshot["edf_tests"]
    )


def record_batch_stats(registry: MetricsRegistry, stats) -> None:
    """Publish a :class:`repro.analysis.batch.BatchStats` snapshot as the
    ``ana_batch_*`` counters of the ``ana_*`` family.

    Like :func:`record_analysis_stats`, deterministic but not gated by
    :func:`compare_reports`.  ``ana_batch_lanes_total`` counts task sets
    submitted to a batch verdict; ``ana_batch_lanes_fastpath_total`` the
    subset decided with zero vectorized fixed-point iterations;
    ``ana_batch_vector_iterations_total`` batched update steps (each
    advances every active lane at once); ``ana_batch_probes_total`` is
    labelled by admission ``kind`` (``rta`` / ``edf``);
    ``ana_batch_scalar_fallbacks_total`` counts lanes handed back to the
    scalar contexts.
    """
    snapshot = stats.snapshot() if hasattr(stats, "snapshot") else dict(stats)
    registry.counter("ana_batch_lanes_total").inc(snapshot["lanes"])
    registry.counter("ana_batch_lanes_fastpath_total").inc(
        snapshot["lanes_fastpath"]
    )
    registry.counter("ana_batch_vector_iterations_total").inc(
        snapshot["vector_iterations"]
    )
    registry.counter("ana_batch_probes_total", kind="rta").inc(
        snapshot["probes_rta"]
    )
    registry.counter("ana_batch_probes_total", kind="edf").inc(
        snapshot["probes_edf"]
    )
    registry.counter("ana_batch_scalar_fallbacks_total").inc(
        snapshot["scalar_fallbacks"]
    )


def _index_metrics(report: Mapping) -> Dict[Tuple[str, tuple], dict]:
    indexed: Dict[Tuple[str, tuple], dict] = {}
    for entry in report.get("metrics", {}).get("metrics", []):
        key = (
            entry["name"],
            tuple(sorted(entry.get("labels", {}).items())),
        )
        indexed[key] = entry
    return indexed


def _metric_id(key: Tuple[str, tuple]) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def _within(golden: float, fresh: float, tolerance: float) -> bool:
    if golden == fresh:
        return True
    base = max(abs(golden), abs(fresh))
    return abs(fresh - golden) <= tolerance * base


def compare_reports(
    golden: Mapping,
    fresh: Mapping,
    wall_tolerance: Optional[float] = DEFAULT_WALL_TOLERANCE,
) -> List[str]:
    """Differences between a golden report and a fresh one.

    Returns human-readable discrepancy strings; empty means the fresh
    report is within contract.  Gating rules:

    * ``schema`` and ``scenario`` must match exactly (a changed scenario
      makes every other comparison meaningless);
    * ``sim_*`` metrics: exact match of every field, both directions
      (missing and unexpected metrics are discrepancies);
    * ``wall_*`` metrics: deterministic event counts exact; nanosecond
      totals within ``wall_tolerance`` relative difference, ignored
      below :data:`WALL_NOISE_FLOOR_NS`; bucket shapes and maxima are
      never gated (single-op maxima are dominated by scheduler jitter);
    * any other metric family: informational only.

    ``wall_tolerance=None`` skips the nanosecond-total checks entirely
    (event counts are still exact): the mode for comparing against a
    *committed* golden baseline, whose absolute wall-clock numbers came
    from a different machine.  The CI regression job pairs that with a
    same-machine run-vs-rerun wall check at the default ±20% band.
    """
    diffs: List[str] = []
    if golden.get("schema") != fresh.get("schema"):
        diffs.append(
            f"schema: golden {golden.get('schema')!r} != "
            f"fresh {fresh.get('schema')!r}"
        )
        return diffs
    if golden.get("scenario") != fresh.get("scenario"):
        diffs.append(
            f"scenario changed: golden {golden.get('scenario')!r} != "
            f"fresh {fresh.get('scenario')!r}"
        )
        return diffs
    golden_metrics = _index_metrics(golden)
    fresh_metrics = _index_metrics(fresh)
    for key in sorted(set(golden_metrics) | set(fresh_metrics)):
        name = key[0]
        in_golden = key in golden_metrics
        in_fresh = key in fresh_metrics
        gated = name.startswith("sim_") or name.startswith("wall_")
        if not (in_golden and in_fresh):
            if gated:
                where = "golden" if in_golden else "fresh"
                diffs.append(f"{_metric_id(key)}: only in {where} report")
            continue
        g, f = golden_metrics[key], fresh_metrics[key]
        if name.startswith("sim_"):
            if g != f:
                diffs.append(
                    f"{_metric_id(key)}: simulated-time mismatch "
                    f"(golden {g} != fresh {f})"
                )
        elif name.startswith("wall_"):
            g_count = g.get("count", g.get("value"))
            f_count = f.get("count", f.get("value"))
            if g.get("type") == "histogram":
                if g_count != f_count:
                    diffs.append(
                        f"{_metric_id(key)}: event count changed "
                        f"(golden {g_count} != fresh {f_count})"
                    )
                g_sum, f_sum = g.get("sum", 0), f.get("sum", 0)
                if (
                    wall_tolerance is not None
                    and max(g_sum, f_sum) >= WALL_NOISE_FLOOR_NS
                    and not _within(g_sum, f_sum, wall_tolerance)
                ):
                    diffs.append(
                        f"{_metric_id(key)}: wall-clock total drifted "
                        f"beyond {wall_tolerance:.0%} "
                        f"(golden {g_sum} ns, fresh {f_sum} ns)"
                    )
            elif name.endswith("_calls_total"):
                # Wall-clock *event counts* are deterministic: how many
                # times a handler ran depends on simulated time only.
                if g != f:
                    diffs.append(
                        f"{_metric_id(key)}: call count changed "
                        f"(golden {g} != fresh {f})"
                    )
            else:
                g_value, f_value = g.get("value", 0), f.get("value", 0)
                if (
                    wall_tolerance is not None
                    and max(g_value, f_value) >= WALL_NOISE_FLOOR_NS
                    and not _within(g_value, f_value, wall_tolerance)
                ):
                    diffs.append(
                        f"{_metric_id(key)}: wall-clock value drifted "
                        f"beyond {wall_tolerance:.0%} "
                        f"(golden {g_value}, fresh {f_value})"
                    )
    return diffs
