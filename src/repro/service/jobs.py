"""Campaign jobs: submitted over HTTP, executed on the shard pool,
resumable across worker *and* service restarts.

A job is an acceptance-ratio sweep (the paper's E3 shape) described by a
:class:`JobSpec`.  Its identity is the SHA-256 of its canonical spec, so
resubmitting the same campaign is idempotent: the second POST returns
the same job id, and a completed job answers from its persisted result.

Execution reuses the PR 2 machinery end to end: the spec decomposes
into :class:`~repro.engine.units.AcceptanceUnit`\\ s, each routed to a
shard by its fingerprint; every shard runs its slice through its own
:class:`~repro.engine.ExperimentEngine` with a per-shard JSONL journal
(``<job>.shard<k>.jsonl``) under the service data directory.  Crash
recovery falls out of the journal contract:

* a **killed shard** mid-campaign is respawned by the pool and the
  slice retried — units already journaled are not recomputed;
* a **killed service** leaves spec files without result files; on
  restart :meth:`JobManager.resume_pending` reschedules them, and the
  fresh engines resume from the journals.  Because every unit is
  independently seeded, the resumed result is bit-identical to an
  uninterrupted run.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.engine import ExperimentEngine, unit_fingerprint
from repro.experiments.acceptance import (
    AcceptanceConfig,
    acceptance_units,
    assemble_acceptance,
)
from repro.metrics.registry import MetricsRegistry, active as _metrics_active
from repro.overhead.model import overhead_model_from_spec
from repro.service.chaos import ShardKilled
from repro.service.shards import DeadlineExceeded, ShardPool


@dataclass(frozen=True)
class JobSpec:
    """One campaign job: an acceptance sweep over a utilization grid."""

    n_cores: int = 2
    n_tasks: int = 6
    sets_per_point: int = 5
    utilizations: Tuple[float, ...] = (0.6, 0.8, 1.0)
    algorithms: Tuple[str, ...] = ("FFD", "WFD")
    seed: int = 2011
    overheads: str = "zero"

    @staticmethod
    def from_dict(data: dict) -> "JobSpec":
        from repro.experiments.algorithms import ALGORITHMS

        if not isinstance(data, dict):
            raise ValueError("campaign spec must be a JSON object")
        known = {f for f in JobSpec.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown campaign field(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        spec = JobSpec(
            n_cores=int(data.get("n_cores", 2)),
            n_tasks=int(data.get("n_tasks", 6)),
            sets_per_point=int(data.get("sets_per_point", 5)),
            utilizations=tuple(
                float(u) for u in data.get("utilizations", (0.6, 0.8, 1.0))
            ),
            algorithms=tuple(data.get("algorithms", ("FFD", "WFD"))),
            seed=int(data.get("seed", 2011)),
            overheads=str(data.get("overheads", "zero")),
        )
        if spec.n_cores < 1 or spec.n_tasks < 1 or spec.sets_per_point < 1:
            raise ValueError(
                "n_cores, n_tasks, and sets_per_point must be at least 1"
            )
        if not spec.utilizations:
            raise ValueError("utilizations must be non-empty")
        if not spec.algorithms:
            raise ValueError("algorithms must be non-empty")
        for name in spec.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {name!r}; choose from "
                    f"{sorted(ALGORITHMS)}"
                )
        overhead_model_from_spec(  # validate eagerly (raises ValueError)
            spec.overheads, max(1, spec.n_tasks // spec.n_cores)
        )
        return spec

    def canonical(self) -> str:
        return json.dumps(
            asdict(self), sort_keys=True, separators=(",", ":")
        )

    def job_id(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def to_config(self) -> AcceptanceConfig:
        model = overhead_model_from_spec(
            self.overheads, max(1, self.n_tasks // self.n_cores)
        )
        return AcceptanceConfig(
            n_cores=self.n_cores,
            n_tasks=self.n_tasks,
            sets_per_point=self.sets_per_point,
            utilizations=list(self.utilizations),
            seed=self.seed,
            overheads=model,
            algorithms=tuple(self.algorithms),
        )


class JobManager:
    """Owns job state files, journals, and the running asyncio tasks."""

    def __init__(
        self,
        data_dir: Path,
        pool: ShardPool,
        metrics: Optional[MetricsRegistry] = None,
        unit_timeout: Optional[float] = None,
        retries: int = 1,
        shard_attempts: int = 3,
    ) -> None:
        self.jobs_dir = Path(data_dir) / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.pool = pool
        self.metrics = _metrics_active(metrics)
        self.unit_timeout = unit_timeout
        self.retries = retries
        self.shard_attempts = max(1, shard_attempts)
        self._tasks: Dict[str, asyncio.Task] = {}
        self._status: Dict[str, dict] = {}

    # -- paths -----------------------------------------------------------

    def _spec_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.spec.json"

    def _result_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.result.json"

    def _journal_path(self, job_id: str, shard: int) -> Path:
        return self.jobs_dir / f"{job_id}.shard{shard}.jsonl"

    # -- public API ------------------------------------------------------

    def submit(self, spec: JobSpec) -> Tuple[str, str]:
        """Persist and schedule ``spec``; returns ``(job_id, state)``.

        Idempotent: a completed job reports ``done`` immediately, a
        running duplicate attaches to the in-flight task.
        """
        job_id = spec.job_id()
        if self._result_path(job_id).exists():
            return job_id, "done"
        if job_id in self._tasks and not self._tasks[job_id].done():
            return job_id, "running"
        spec_path = self._spec_path(job_id)
        if not spec_path.exists():
            spec_path.write_text(spec.canonical(), encoding="utf-8")
        self._schedule(job_id, spec)
        return job_id, "running"

    def status(self, job_id: str) -> Optional[dict]:
        """The job's current status document (None = unknown id)."""
        result_path = self._result_path(job_id)
        if result_path.exists():
            try:
                return json.loads(result_path.read_text(encoding="utf-8"))
            except ValueError:
                return {
                    "id": job_id,
                    "state": "failed",
                    "error": "result file is corrupt",
                }
        if job_id in self._status:
            return self._status[job_id]
        if self._spec_path(job_id).exists():
            return {"id": job_id, "state": "pending"}
        return None

    async def wait(self, job_id: str) -> Optional[dict]:
        """Await the running task (if any), then return the status."""
        task = self._tasks.get(job_id)
        if task is not None:
            await asyncio.shield(task)
        return self.status(job_id)

    def resume_pending(self) -> List[str]:
        """Reschedule every job with a spec but no result (crash

        recovery after a service restart).  Returns the resumed ids."""
        resumed = []
        for spec_path in sorted(self.jobs_dir.glob("*.spec.json")):
            job_id = spec_path.name[: -len(".spec.json")]
            if self._result_path(job_id).exists():
                continue
            if job_id in self._tasks and not self._tasks[job_id].done():
                continue
            try:
                spec = JobSpec.from_dict(
                    json.loads(spec_path.read_text(encoding="utf-8"))
                )
            except ValueError:
                continue  # unreadable spec: leave for post-mortem
            self._schedule(job_id, spec)
            resumed.append(job_id)
            if self.metrics is not None:
                self.metrics.counter(
                    "svc_jobs_total", event="resumed"
                ).inc()
        return resumed

    # -- execution -------------------------------------------------------

    def _schedule(self, job_id: str, spec: JobSpec) -> None:
        self._status[job_id] = {"id": job_id, "state": "running"}
        if self.metrics is not None:
            self.metrics.counter("svc_jobs_total", event="submitted").inc()
        self._tasks[job_id] = asyncio.get_running_loop().create_task(
            self._run(job_id, spec)
        )

    async def _run(self, job_id: str, spec: JobSpec) -> None:
        try:
            status = await self._execute(job_id, spec)
        except Exception as exc:  # a job must never take the loop down
            status = {
                "id": job_id,
                "state": "failed",
                "error": f"{type(exc).__name__}: {exc}",
            }
        self._status[job_id] = status
        self._write_result(job_id, status)
        if self.metrics is not None:
            self.metrics.counter(
                "svc_jobs_total", event=status["state"]
            ).inc()

    def _write_result(self, job_id: str, status: dict) -> None:
        path = self._result_path(job_id)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(
            json.dumps(status, sort_keys=True), encoding="utf-8"
        )
        tmp.replace(path)

    async def _execute(self, job_id: str, spec: JobSpec) -> dict:
        config = spec.to_config()
        units = acceptance_units(config)
        by_shard: Dict[int, List[int]] = {}
        for index, unit in enumerate(units):
            shard = self.pool.route(unit_fingerprint(unit))
            by_shard.setdefault(shard, []).append(index)

        payloads: List[Optional[dict]] = [None] * len(units)
        shard_stats: Dict[str, dict] = {}
        shard_registries: List[MetricsRegistry] = []

        async def run_shard(shard_index: int, indices: List[int]) -> None:
            registry = MetricsRegistry()
            engine = ExperimentEngine(
                jobs=1,
                unit_timeout=self.unit_timeout,
                retries=self.retries,
                journal=self._journal_path(job_id, shard_index),
                resume=True,
                metrics=registry,
            )
            subunits = [units[i] for i in indices]
            results = None
            for attempt in range(self.shard_attempts):
                try:
                    results = await self.pool.run(
                        shard_index,
                        lambda: engine.run(subunits),
                        kind="campaign",
                    )
                    break
                except (ShardKilled, DeadlineExceeded):
                    # The shard was respawned; units already journaled
                    # are not recomputed on the next attempt.
                    if attempt == self.shard_attempts - 1:
                        raise
            for i, payload in zip(indices, results):
                payloads[i] = payload
            shard_registries.append(registry)
            shard_stats[f"shard{shard_index}"] = {
                "units": len(indices),
                "computed": engine.stats.computed,
                "journal_hits": engine.stats.journal_hits,
                "journal_corrupt": engine.stats.journal_corrupt,
                "failed": engine.stats.failed,
            }

        await asyncio.gather(
            *(
                run_shard(shard_index, indices)
                for shard_index, indices in sorted(by_shard.items())
            )
        )
        # Worker-thread engines recorded into private registries; fold
        # them into the shared one here, on the event loop.
        if self.metrics is not None:
            for registry in shard_registries:
                self.metrics.merge(registry)

        result = assemble_acceptance(config, payloads)
        partial = bool(result.failed_utilizations)
        return {
            "id": job_id,
            "state": "done" if not partial else "partial",
            "spec": json.loads(spec.canonical()),
            "result": {
                "utilizations": list(result.utilizations),
                "ratios": {
                    name: list(values)
                    for name, values in result.ratios.items()
                },
            },
            "shards": shard_stats,
        }
