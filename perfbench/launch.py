"""Traced launcher: run one ``repro`` command with layer spans recorded.

    PYTHONPATH=src python perfbench/launch.py SPANS.json <repro args...>

Wraps public functions at each layer boundary (generation, WCET
inflation, partitioning/analysis, the batch kernel, the simulator, the
engine and its cache, and the service's request path) with spans from
:mod:`spans`, snapshots the public work counters
(:data:`repro.analysis.STATS`, :data:`repro.analysis.batch.BATCH_STATS`),
then calls ``repro.cli.main``.  When the command returns -- for
``serve``, after SIGINT -- the spans and counter deltas are written to
``SPANS.json`` in one go.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys

from spans import Tracer


def _wrap(owner, attr, tracer, name, after=None):
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``after(attrs, args, kwargs, result)`` may add attributes once the
    call returns.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = original(*args, **kwargs)
            if after is not None:
                after(attrs, args, kwargs, result)
            return result

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""
    import repro.engine.executor as executor
    import repro.experiments.algorithms as algorithms
    import repro.service.app as app
    from repro.engine.cache import ResultCache
    from repro.kernel.sim import KernelSim
    from repro.model.generator import TaskSetGenerator
    from repro.service.shards import ShardPool

    def count_sets(attrs, args, kwargs, result):
        attrs["sets"] = kwargs.get("count", args[2] if len(args) > 2 else 0)

    _wrap(TaskSetGenerator, "generate_many", tracer, "model.generate",
          count_sets)
    _wrap(TaskSetGenerator, "generate_batch", tracer, "model.generate",
          count_sets)
    # Call sites look these up in repro.experiments.algorithms' globals.
    _wrap(algorithms, "inflate_taskset", tracer, "overhead.inflate")

    def verdict(attrs, args, kwargs, result):
        attrs["alg"] = kwargs.get("algorithm", args[0] if args else None)
        attrs["ok"] = result is not None

    _wrap(algorithms, "build_assignment", tracer, "analysis.build", verdict)
    _wrap(algorithms, "accept_populations", tracer, "batch.accept")

    def releases(attrs, args, kwargs, result):
        attrs["releases"] = result.releases

    _wrap(KernelSim, "run", tracer, "kernel.run", releases)

    # The engine binds these names at import time.
    _wrap(executor, "execute_unit", tracer, "engine.unit")
    _wrap(executor, "unit_fingerprint", tracer, "fingerprint")
    _wrap(app, "unit_fingerprint", tracer, "fingerprint")
    _wrap(ResultCache, "load", tracer, "cache.load")
    _wrap(ResultCache, "store", tracer, "cache.store")

    engine_run = executor.ExperimentEngine.run

    @functools.wraps(engine_run)
    def run_engine(self, units):
        hits, misses = self.stats.cache_hits, self.stats.cache_misses
        with tracer.span("engine.run") as attrs:
            result = engine_run(self, units)
            attrs["hits"] = self.stats.cache_hits - hits
            attrs["misses"] = self.stats.cache_misses - misses
            return result

    executor.ExperimentEngine.run = run_engine

    def mode(attrs, args, kwargs, result):
        attrs["mode"] = kwargs.get("mode", args[1] if len(args) > 1
                                   else "scalar")

    # ShardPool.run calls it through a lambda in repro.service.app.
    _wrap(app, "execute_admission", tracer, "service.execute", mode)

    handle = app.ServiceApp.handle

    @functools.wraps(handle)
    async def traced_handle(self, method, path, body):
        if path != "/v1/admission":
            return await handle(self, method, path, body)
        try:
            request = json.loads(body).get("request_id")
        except (ValueError, AttributeError):
            request = None
        with tracer.span("service.handle", request=request) as attrs:
            response = await handle(self, method, path, body)
            attrs["status"] = response[0]
            return response

    app.ServiceApp.handle = traced_handle

    shard_run = ShardPool.run

    @functools.wraps(shard_run)
    async def traced_shard_run(self, index, fn, timeout=None, kind="work"):
        with tracer.span("service.shard_run"):
            # The shard thread runs fn inside this context, so its spans
            # keep this span as parent and carry the request id.
            context = contextvars.copy_context()
            return await shard_run(
                self, index, lambda: context.run(fn), timeout=timeout,
                kind=kind,
            )

    ShardPool.run = traced_shard_run


def _counters():
    from repro.analysis.batch import BATCH_STATS
    from repro.analysis.incremental import STATS

    return {"analysis": STATS.snapshot(), "batch": BATCH_STATS.snapshot()}


def main(argv) -> int:
    out_path, repro_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    before = _counters()
    import repro.cli

    try:
        status = repro.cli.main(repro_args)
    finally:
        after = _counters()
        deltas = {
            group: {k: after[group][k] - before[group][k]
                    for k in after[group]}
            for group in after
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counters": deltas}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
