"""Per-layer metrics from traced-run span dumps and ``-X importtime``.

Every workload reports every layer; a layer the workload never enters
reads 0, which is itself the prediction (e.g. ``kernel.runs`` on
``paper-sweep``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

from spans import self_times

NS = 1e9
MS_NS = 1e6

#: ``-X importtime`` module -> per-layer metric (cumulative time).
IMPORT_MODULES = {
    "numpy": "import.numpy_ms",
    "repro.model": "import.repro.model_ms",
    "repro.kernel": "import.repro.kernel_ms",
    "repro.engine": "import.repro.engine_ms",
    "repro.experiments": "import.repro.experiments_ms",
}

#: Scalar-path algorithms with their own self-time and accept-ratio rows.
ALGORITHM_KEYS = {"FP-TS": "fpts", "FFD": "ffd", "WFD": "wfd"}


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Cumulative import times (ms) of ``import repro.cli``.

    ``import.total_ms`` sums the top-level ``repro`` entries (everything
    ``repro`` pulls in nests under them); the named modules report the
    cumulative time of their own line, 0 when never imported.
    """
    metrics = {name: 0.0 for name in IMPORT_MODULES.values()}
    metrics["import.total_ms"] = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        try:
            cumulative_us = int(fields[1])
        except ValueError:
            continue  # the header line
        label = fields[2]
        module = label.strip()
        top_level = len(label) - len(label.lstrip()) == 1
        if top_level and (module == "repro" or module.startswith("repro.")):
            metrics["import.total_ms"] += cumulative_us / 1000
        name = IMPORT_MODULES.get(module)
        if name is not None and metrics[name] == 0.0:
            metrics[name] = cumulative_us / 1000
    return metrics


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def span_metrics(
    dumps: Iterable[dict], client: Optional[dict] = None
) -> Dict[str, float]:
    """Aggregate span dumps (one per traced process) into layer metrics.

    ``client`` carries the client-side admission numbers: ``latency_ms``
    (send to response, per request), ``lag_tail_ms``, ``repeat_share``,
    ``degraded`` and ``shed``.
    """
    acc: Dict[str, float] = defaultdict(float)
    accepted: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    counters: Dict[str, float] = defaultdict(float)
    for dump in dumps:
        spans = dump["spans"]
        own = self_times(spans)
        for group, values in dump["counters"].items():
            for key, value in values.items():
                counters[f"{group}.{key}"] += value
        for span in spans:
            name, attrs = span["name"], span["attrs"]
            duration = span["end"] - span["start"]
            self_ns = own[span["id"]]
            served = span["request"] is not None
            if name == "model.generate":
                acc["model.generate_ns"] += duration
                acc["model.sets"] += attrs["sets"]
            elif name == "overhead.inflate":
                acc["overhead.inflate_ns"] += duration
                acc["overhead.inflate_calls"] += 1
            elif name == "analysis.build":
                key = ALGORITHM_KEYS.get(attrs["alg"])
                if key is not None:
                    acc[f"analysis.{key}_self_ns"] += self_ns
                    accepted[key][0] += attrs["ok"]
                    accepted[key][1] += 1
            elif name == "batch.accept":
                acc["batch.self_ns"] += self_ns
            elif name == "kernel.run":
                acc["kernel.simulate_ns"] += duration
                acc["kernel.runs"] += 1
                acc["kernel.releases"] += attrs["releases"]
            elif name == "engine.run":
                acc["engine.self_ns"] += self_ns
                acc["engine.cache_hits"] += attrs["hits"]
                acc["engine.cache_misses"] += attrs["misses"]
            elif name == "engine.unit":
                acc["engine.unit_self_ns"] += self_ns
            elif name == "fingerprint":
                key = "service" if served else "engine"
                acc[f"{key}.fingerprint_ns"] += duration
            elif name == "cache.load" and not served:
                acc["engine.cache_load_ns"] += duration
            elif name == "cache.store":
                key = "service" if served else "engine"
                acc[f"{key}.cache_store_ns"] += duration
            elif name == "service.handle":
                acc["service.requests"] += 1
                acc["service.handle_ns"] += duration
                acc["service.handle_self_ns"] += self_ns
            elif name == "service.shard_run":
                acc["service.shard_wait_ns"] += self_ns
            elif name == "service.execute":
                acc[f"service.{attrs['mode']}_runs"] += 1
                acc[f"service.{attrs['mode']}_ns"] += duration

    requests = int(acc["service.requests"])
    batch_runs = int(acc["service.batch_runs"])
    scalar_runs = int(acc["service.scalar_runs"])
    lanes = counters["batch.lanes"]
    metrics = {
        "model.generate_s": acc["model.generate_ns"] / NS,
        "model.sets": acc["model.sets"],
        "overhead.inflate_s": acc["overhead.inflate_ns"] / NS,
        "overhead.inflate_calls": acc["overhead.inflate_calls"],
        "analysis.fixpoint_iterations":
            counters["analysis.fixpoint_iterations"],
        "analysis.probes": counters["analysis.probes"],
        "analysis.budget_searches": counters["analysis.budget_searches"],
        "batch.self_s": acc["batch.self_ns"] / NS,
        "batch.vector_iterations": counters["batch.vector_iterations"],
        "batch.lanes": lanes,
        "batch.fastpath_share": _mean(counters["batch.lanes_fastpath"], lanes),
        "batch.scalar_fallbacks": counters["batch.scalar_fallbacks"],
        "kernel.simulate_s": acc["kernel.simulate_ns"] / NS,
        "kernel.runs": acc["kernel.runs"],
        "kernel.releases": acc["kernel.releases"],
        "kernel.host_us_per_release": _mean(
            acc["kernel.simulate_ns"] / 1e3, acc["kernel.releases"]
        ),
        "engine.self_s": acc["engine.self_ns"] / NS,
        "engine.unit_self_s": acc["engine.unit_self_ns"] / NS,
        "engine.fingerprint_s": acc["engine.fingerprint_ns"] / NS,
        "engine.cache_load_s": acc["engine.cache_load_ns"] / NS,
        "engine.cache_store_s": acc["engine.cache_store_ns"] / NS,
        "engine.cache_hits": acc["engine.cache_hits"],
        "engine.cache_misses": acc["engine.cache_misses"],
        "service.handle_self_ms": _mean(
            acc["service.handle_self_ns"] / MS_NS, requests
        ),
        "service.shard_wait_ms": _mean(
            acc["service.shard_wait_ns"] / MS_NS, requests
        ),
        "service.analysis_batch_ms": _mean(
            acc["service.batch_ns"] / MS_NS, batch_runs
        ),
        "service.analysis_scalar_ms": _mean(
            acc["service.scalar_ns"] / MS_NS, scalar_runs
        ),
        "service.fingerprint_ms": _mean(
            acc["service.fingerprint_ns"] / MS_NS, requests
        ),
        "service.cache_store_ms": _mean(
            acc["service.cache_store_ns"] / MS_NS, requests
        ),
        "service.batch_rung_share": _mean(
            batch_runs, batch_runs + scalar_runs
        ),
    }
    for key in ALGORITHM_KEYS.values():
        metrics[f"analysis.{key}_self_s"] = acc[f"analysis.{key}_self_ns"] / NS
        metrics[f"analysis.{key}_accept_ratio"] = _mean(*accepted[key])
    client = client or {}
    latencies = client.get("latency_ms", [])
    metrics["service.degraded"] = client.get("degraded", 0)
    metrics["service.shed"] = client.get("shed", 0)
    metrics["client.http_ms"] = (
        _mean(sum(latencies), len(latencies))
        - _mean(acc["service.handle_ns"] / MS_NS, requests)
        if latencies else 0.0
    )
    metrics["client.lag_p99_ms"] = client.get("lag_tail_ms", 0.0)
    metrics["client.repeat_share"] = client.get("repeat_share", 0.0)
    return metrics
