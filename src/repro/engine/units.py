"""Work units: self-describing, independently executable experiment slices.

A unit is one *utilization point* of one experiment configuration — the
granularity at which the existing harnesses already derive their per-point
seeds (``seed + 7919 * point_index`` for acceptance sweeps, ``seed +
104729 * point_index`` for splitting statistics).  Because each unit
carries everything needed to execute it (platform, workload, overhead
model, algorithms, seed), units can run in any order, in any process, and
the merged result is identical to the serial loops they replaced.

``execute_unit`` is a module-level function so it pickles cleanly for
:class:`concurrent.futures.ProcessPoolExecutor`; payloads are plain
JSON-serializable dicts of *exact* values (acceptance counts, not ratios)
so a cache round-trip cannot perturb downstream floating-point results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple, Union

from repro.model.time import MS, SEC
from repro.overhead.model import OverheadModel

#: Bump whenever unit semantics or payload layout change: the version is
#: hashed into every cache key, so stale cache entries are invalidated
#: wholesale instead of being misread.
#: v2: AcceptanceUnit grew the ``batch`` field (vectorized analysis).
#: v3: new WorkloadUnit kind (trace-driven scenario synthesis).
#: v4: new CriteriaUnit kind (multi-criteria campaign axes).
#: v5: AcceptanceUnit lost the ``batch`` field (one acceptance path).
CACHE_SCHEMA_VERSION = 5


@dataclass(frozen=True)
class AcceptanceUnit:
    """One utilization point of an acceptance-ratio sweep.

    Executing it generates ``sets_per_point`` task sets with total
    utilization ``utilization * n_cores`` from ``seed`` and counts, per
    algorithm, how many pass the overhead-aware acceptance test.

    The point's population is generated as one struct-of-arrays batch
    and analyzed by
    :func:`~repro.experiments.algorithms.accept_populations`, which
    picks the engine per algorithm from the input: vectorized kernels
    where the batch layer can express it, lane-by-lane scalar analysis
    everywhere else.
    """

    n_cores: int
    n_tasks: int
    sets_per_point: int
    utilization: float  # normalized (U/m)
    seed: int
    algorithms: Tuple[str, ...]
    overheads: OverheadModel
    period_min: int = 10 * MS
    period_max: int = 1000 * MS
    kind: str = "acceptance"


@dataclass(frozen=True)
class SplittingUnit:
    """One utilization point of the splitting-statistics experiment (E7)."""

    algorithm: str
    n_cores: int
    n_tasks: int
    sets_per_point: int
    utilization: float  # normalized (U/m)
    seed: int
    overheads: OverheadModel
    period_min: int = 10 * MS
    period_max: int = 1000 * MS
    kind: str = "splitting"


@dataclass(frozen=True)
class CriteriaUnit:
    """One utilization point of a multi-criteria campaign sweep.

    Executing it regenerates the same task-set population as the matching
    :class:`AcceptanceUnit` (same seed contract) and measures, per
    algorithm, the evaluation axes *beyond* acceptance:

    * static packing axes over **every** accepted assignment —
      spare-capacity balance (``min`` over cores of spare capacity
      divided by the mean spare, 1.0 = perfectly even) and bin-packing
      slack (``1 - total_utilization / m``);
    * dynamic axes from short :class:`~repro.kernel.sim.KernelSim` runs
      (two maximum periods of simulated time) over the first
      ``sim_sets`` accepted sets — preemptions and migrations per job
      release, mean platform power (mW) and energy per hyperperiod (uJ)
      from the simulation's energy ledger.

    Payload values are per-algorithm means; an algorithm that accepted
    no set maps to ``None`` (NaN downstream), and dynamic axes are
    ``None`` when no accepted set was simulated.  Global algorithms
    place tasks at runtime, so their static axes use the evenly-spread
    raw utilization and their simulations route through
    :func:`repro.kernel.global_sim.build_global_assignment`.
    """

    n_cores: int
    n_tasks: int
    sets_per_point: int
    utilization: float  # normalized (U/m)
    seed: int
    algorithms: Tuple[str, ...]
    overheads: OverheadModel
    period_min: int = 10 * MS
    period_max: int = 1000 * MS
    #: Cap on per-algorithm simulated sets (simulation dominates cost).
    sim_sets: int = 5
    kind: str = "criteria"


@dataclass(frozen=True)
class ChaosUnit:
    """A unit that misbehaves on demand — the engine-robustness harness.

    Used by the tests and the CI fault smoke to exercise the engine's
    timeout, retry, crash, and fallback paths with *controlled* failures:

    * ``mode="ok"`` — sleep ``sleep_s`` (if any) and return
      ``{"value": payload_value}``;
    * ``mode="error"`` — raise ``RuntimeError`` every time;
    * ``mode="crash"`` — kill the hosting process with ``os._exit`` (a
      worker crash; **never execute serially**);
    * ``mode="hang"`` — sleep ``sleep_s`` before returning (set it above
      the engine's ``unit_timeout`` to simulate a hung worker);
    * ``mode="crash-once"`` / ``mode="error-once"`` — fail only while
      the ``marker`` file does not exist (it is created just before the
      failure), so the first attempt dies and every retry succeeds.
    """

    mode: str = "ok"
    payload_value: int = 0
    sleep_s: float = 0.0
    marker: Optional[str] = None
    kind: str = "chaos"


@dataclass(frozen=True)
class AdmissionUnit:
    """One online admission-control query: *can this exact task set be
    scheduled on this platform?*

    The unit carries the task set verbatim — ``tasks`` is a tuple of
    ``(name, wcet_ns, period_ns, deadline_ns, wss_bytes)`` tuples — so
    its fingerprint is a content hash of the *query*, which is what the
    service's cache-only degradation tier answers from.
    """

    tasks: Tuple[Tuple[str, int, int, int, int], ...]
    n_cores: int
    algorithms: Tuple[str, ...]
    overheads: OverheadModel
    kind: str = "admission"


@dataclass(frozen=True)
class ProfileUnit:
    """One metrics-instrumented simulation of a generated scenario.

    Executing it generates a task set (``seed``), partitions it with
    ``algorithm``, runs a :class:`~repro.kernel.sim.KernelSim` with a
    fresh :class:`~repro.metrics.registry.MetricsRegistry` attached, and
    returns the registry snapshot plus a headline summary.  Snapshots
    are plain dicts, so shards from worker processes merge losslessly in
    the parent (``MetricsRegistry.from_dict(...)`` + ``merge``) — the
    merged registry's ``sim_*`` metrics equal a serial run's exactly.
    Rejected (unschedulable) scenarios return ``{"rejected": True}``.
    """

    n_cores: int
    n_tasks: int
    utilization: float  # normalized (U/m)
    seed: int
    algorithm: str
    overheads: OverheadModel
    duration_ms: int
    overrun_policy: str = "run-on"
    period_min: int = 10 * MS
    period_max: int = 1000 * MS
    kind: str = "profile"


@dataclass(frozen=True)
class VerifyUnit:
    """A contiguous slice of verification-harness trials.

    Executing it runs trials ``start .. start + count - 1`` of the
    :mod:`repro.verify.harness` (each trial derives its own RNG from
    ``seed`` and its index, so slicing is order-independent) and returns
    the failing trials as JSON payloads — scenario plus violation
    strings.  Shrinking happens in the parent process, not here: a unit
    payload must be cheap, cacheable raw data.
    """

    start: int
    count: int
    seed: int
    kind: str = "verify"


@dataclass(frozen=True)
class WorkloadUnit:
    """One synthesized trace-driven scenario: a point on a storm sweep.

    Executing it re-synthesizes the aperiodic job streams from the
    embedded fitted profile (:mod:`repro.workload`) at ``scale`` with
    the configured ON/OFF storm overlay, generates a hard periodic set
    when ``n_hard_tasks > 0``, routes the jobs through the chosen
    aperiodic server, and runs the exact event-driven server simulation.
    The unit carries the *whole* :class:`~repro.workload.profile.
    WorkloadProfile` (nested frozen dataclasses, so ``asdict`` gives a
    stable fingerprint and the unit pickles to process-pool workers);
    ``storm_intensity <= 1`` disables the storm overlay, and an empty
    ``stream`` synthesizes every stream in the profile.  Payloads are
    exact integer totals, never means.
    """

    profile: "WorkloadProfile"
    horizon_ms: int
    seed: int
    scale: float = 1.0
    stream: str = ""
    storm_intensity: float = 1.0
    storm_on_ms: int = 0
    storm_off_ms: int = 0
    server_kind: str = "deferrable"
    server_capacity_us: int = 2000
    server_period_us: int = 10000
    server_priority: int = 0
    n_hard_tasks: int = 0
    hard_utilization: float = 0.0
    period_min: int = 10 * MS
    period_max: int = 1000 * MS
    kind: str = "workload"


WorkUnit = Union[
    AcceptanceUnit,
    AdmissionUnit,
    SplittingUnit,
    ChaosUnit,
    CriteriaUnit,
    VerifyUnit,
    ProfileUnit,
    WorkloadUnit,
]


def unit_spec(unit: WorkUnit) -> dict:
    """The unit's full configuration as a JSON-safe nested dict."""
    return asdict(unit)


def unit_fingerprint(
    unit: WorkUnit, schema_version: Optional[int] = None
) -> str:
    """Stable content hash of a unit's configuration.

    Canonical JSON (sorted keys, no whitespace) of the unit's spec plus
    the cache schema version, SHA-256 hashed — the key under which
    :class:`repro.engine.cache.ResultCache` stores the unit's payload.
    """
    if schema_version is None:
        schema_version = CACHE_SCHEMA_VERSION
    blob = json.dumps(
        {"schema": schema_version, "unit": unit_spec(unit)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def execute_unit(unit: WorkUnit) -> dict:
    """Execute one work unit and return its JSON-serializable payload.

    Module-level (pickled by reference) so it can be dispatched to a
    :class:`~concurrent.futures.ProcessPoolExecutor` worker.
    """
    if unit.kind == "acceptance":
        return _execute_acceptance(unit)
    if unit.kind == "splitting":
        return _execute_splitting(unit)
    if unit.kind == "criteria":
        return _execute_criteria(unit)
    if unit.kind == "chaos":
        return _execute_chaos(unit)
    if unit.kind == "verify":
        return _execute_verify(unit)
    if unit.kind == "profile":
        return _execute_profile(unit)
    if unit.kind == "admission":
        return execute_admission(unit)
    if unit.kind == "workload":
        # Lazy import: repro.workload.synth pulls in the servers layer,
        # which workers not running workload units never need.
        from repro.workload.synth import run_workload_unit

        return run_workload_unit(unit)
    raise ValueError(f"unknown work-unit kind {unit.kind!r}")


def admission_taskset(unit: AdmissionUnit):
    """Rebuild the unit's task set (rate-monotonic priorities assigned).

    Raises :class:`ValueError` for malformed tasks — the service maps
    that to a 400, never a traceback.
    """
    from repro.model.task import Task
    from repro.model.taskset import TaskSet

    tasks = [
        Task(name=name, wcet=wcet, period=period, deadline=deadline,
             wss=wss)
        for name, wcet, period, deadline, wss in unit.tasks
    ]
    return TaskSet(tasks).assign_rate_monotonic()


def execute_admission(unit: AdmissionUnit) -> dict:
    """Answer one admission query: one verdict per requested algorithm."""
    from repro.experiments.algorithms import build_assignments

    built = build_assignments(
        unit.algorithms, admission_taskset(unit), unit.n_cores,
        unit.overheads,
    )
    return {
        "verdicts": {
            name: built[name] is not None for name in unit.algorithms
        }
    }


def _execute_profile(unit: ProfileUnit) -> dict:
    from repro.experiments.algorithms import build_assignment
    from repro.kernel.sim import KernelSim
    from repro.metrics.registry import MetricsRegistry
    from repro.model.generator import TaskSetGenerator

    generator = TaskSetGenerator(
        n_tasks=unit.n_tasks,
        seed=unit.seed,
        period_min=unit.period_min,
        period_max=unit.period_max,
    )
    taskset = generator.generate(unit.utilization * unit.n_cores)
    assignment = build_assignment(
        unit.algorithm, taskset, unit.n_cores, unit.overheads
    )
    if assignment is None:
        return {"rejected": True, "metrics": None, "summary": None}
    registry = MetricsRegistry()
    result = KernelSim(
        assignment,
        unit.overheads,
        duration=unit.duration_ms * MS,
        execution_times={task.name: task.wcet for task in taskset},
        seed=unit.seed,
        overrun_policy=unit.overrun_policy,
        metrics=registry,
    ).run()
    return {
        "rejected": False,
        "metrics": registry.as_dict(),
        "summary": {
            "releases": result.releases,
            "misses": result.miss_count,
            "preemptions": result.preemptions,
            "migrations": result.migrations,
            "context_switches": result.context_switches,
            "overhead_ratio": result.total_overhead_ratio,
        },
    }


def _execute_verify(unit: VerifyUnit) -> dict:
    from repro.verify.harness import run_trial

    failures = []
    for index in range(unit.start, unit.start + unit.count):
        failure = run_trial(index, unit.seed)
        if failure is not None:
            failures.append(failure.as_dict())
    return {"trials": unit.count, "failures": failures}


def _execute_chaos(unit: ChaosUnit) -> dict:
    import os
    import time as _t
    from pathlib import Path as _Path

    mode = unit.mode
    if mode in ("crash-once", "error-once"):
        marker = _Path(unit.marker) if unit.marker else None
        if marker is None or marker.exists():
            mode = "ok"
        else:
            marker.touch()
            mode = mode[: -len("-once")]
    if mode == "ok":
        if unit.sleep_s > 0:
            _t.sleep(unit.sleep_s)
        return {"value": unit.payload_value}
    if mode == "error":
        raise RuntimeError("chaos unit: injected error")
    if mode == "crash":
        os._exit(13)  # simulate a worker process dying uncleanly
    if mode == "hang":
        _t.sleep(unit.sleep_s)
        return {"value": unit.payload_value}
    raise ValueError(f"unknown chaos mode {unit.mode!r}")


def _execute_acceptance(unit: AcceptanceUnit) -> dict:
    # Imported lazily: repro.experiments imports repro.engine back.
    from repro.analysis.batch import TaskSetPopulation
    from repro.experiments.algorithms import accept_populations
    from repro.model.generator import TaskSetGenerator

    generator = TaskSetGenerator(
        n_tasks=unit.n_tasks,
        seed=unit.seed,
        period_min=unit.period_min,
        period_max=unit.period_max,
    )
    generated = generator.generate_batch(
        unit.utilization * unit.n_cores, unit.sets_per_point
    )
    population = TaskSetPopulation.from_arrays(
        generated.wcet,
        generated.period,
        generated.deadline,
        generated.wss,
        generated.names,
    )
    verdicts = accept_populations(
        list(unit.algorithms), population, unit.n_cores, unit.overheads
    )
    accepted = {name: sum(verdicts[name]) for name in unit.algorithms}
    return {"accepted": accepted, "total": population.n_sets}


def _execute_criteria(unit: CriteriaUnit) -> dict:
    import math

    from repro.experiments.algorithms import ALGORITHMS, build_assignments
    from repro.kernel.global_sim import build_global_assignment
    from repro.kernel.sim import KernelSim
    from repro.model.generator import TaskSetGenerator

    generator = TaskSetGenerator(
        n_tasks=unit.n_tasks,
        seed=unit.seed,
        period_min=unit.period_min,
        period_max=unit.period_max,
    )
    tasksets = generator.generate_many(
        unit.utilization * unit.n_cores, unit.sets_per_point
    )

    def _mean(values):
        return sum(values) / len(values)

    def _simulate(taskset, assignment, spec):
        result = KernelSim(
            build_global_assignment(taskset, unit.n_cores)
            if spec.kind == "global"
            else assignment,
            unit.overheads,
            duration=2 * max(task.period for task in taskset),
            execution_times={task.name: task.wcet for task in taskset},
            seed=unit.seed,
            sched_class=spec.sched_class,
        ).run()
        releases = max(1, result.releases)
        hyperperiod = math.lcm(*(t.period for t in taskset))
        try:
            per_hp_uj = float(result.energy.energy_per_ns(hyperperiod)) / 1e6
        except OverflowError:
            per_hp_uj = math.inf
        return (
            result.preemptions / releases,
            result.migrations / releases,
            float(result.energy.average_power_mw),
            per_hp_uj,
        )

    # Per algorithm: (spare_balance, packing_slack) of every accepted
    # set, and (preempt/rel, migr/rel, power_mw, per_hp_uj) of the first
    # ``sim_sets`` of them.
    names = list(dict.fromkeys(unit.algorithms))
    static_rows = {name: [] for name in names}
    dynamic_rows = {name: [] for name in names}
    for taskset in tasksets:
        built = build_assignments(
            names, taskset, unit.n_cores, unit.overheads
        )
        # Algorithms handed the same assignment object (FFD read off
        # FP-TS) share one simulation: same inputs, same result.
        runs: Dict[Tuple[int, str], tuple] = {}
        for name in names:
            spec = ALGORITHMS[name]
            assignment = built[name]
            if assignment is None:
                continue
            if spec.kind == "global":
                # Placement is a runtime decision; statically the load
                # is spread evenly (placeholder assignments are empty).
                total = sum(t.wcet / t.period for t in taskset)
                core_utils = [total / unit.n_cores] * unit.n_cores
            else:
                core_utils = [
                    core.utilization for core in assignment.cores
                ]
            spare = [max(0.0, 1.0 - u) for u in core_utils]
            mean_spare = _mean(spare)
            static_rows[name].append(
                (
                    min(spare) / mean_spare if mean_spare > 0 else 1.0,
                    1.0 - sum(core_utils) / unit.n_cores,
                )
            )
            if len(dynamic_rows[name]) >= unit.sim_sets:
                continue
            key = (id(assignment), spec.sched_class)
            if key not in runs:
                runs[key] = _simulate(taskset, assignment, spec)
            dynamic_rows[name].append(runs[key])

    criteria: Dict[str, Optional[dict]] = {}
    accepted: Dict[str, int] = {}
    for name in names:
        static, dynamic = static_rows[name], dynamic_rows[name]
        accepted[name] = len(static)
        if not static:
            criteria[name] = None
            continue
        entry = {
            "spare_balance": _mean([r[0] for r in static]),
            "packing_slack": _mean([r[1] for r in static]),
            "preemptions": None,
            "migrations": None,
            "avg_power_mw": None,
            "energy_per_hp_uj": None,
        }
        if dynamic:
            entry["preemptions"] = _mean([r[0] for r in dynamic])
            entry["migrations"] = _mean([r[1] for r in dynamic])
            entry["avg_power_mw"] = _mean([r[2] for r in dynamic])
            entry["energy_per_hp_uj"] = _mean([r[3] for r in dynamic])
        criteria[name] = entry
    return {
        "accepted": accepted,
        "total": len(tasksets),
        "criteria": criteria,
    }


def _execute_splitting(unit: SplittingUnit) -> dict:
    from repro.experiments.algorithms import build_assignment
    from repro.model.generator import TaskSetGenerator

    generator = TaskSetGenerator(
        n_tasks=unit.n_tasks,
        seed=unit.seed,
        period_min=unit.period_min,
        period_max=unit.period_max,
    )
    sets_accepted = 0
    split_tasks_total = 0
    subtasks_total = 0
    migrations_per_second_total = 0.0
    for _ in range(unit.sets_per_point):
        taskset = generator.generate(unit.utilization * unit.n_cores)
        assignment = build_assignment(
            unit.algorithm, taskset, unit.n_cores, unit.overheads
        )
        if assignment is None:
            continue
        sets_accepted += 1
        split_tasks_total += assignment.n_split_tasks
        migrations_per_second = 0.0
        for split in assignment.split_tasks.values():
            subtasks_total += len(split.subtasks)
            migrations_per_second += (
                split.migration_count_per_job * SEC / split.task.period
            )
        migrations_per_second_total += migrations_per_second
    return {
        "sets_total": unit.sets_per_point,
        "sets_accepted": sets_accepted,
        "split_tasks_total": split_tasks_total,
        "subtasks_total": subtasks_total,
        "migrations_per_second_total": migrations_per_second_total,
    }
