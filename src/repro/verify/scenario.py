"""Self-contained, replayable verification scenarios.

A :class:`Scenario` pins *everything* one end-to-end pipeline run depends
on — the materialized task parameters (not a generator seed, so shrinking
can edit individual tasks), the partitioning algorithm, the simulator
configuration, and an optional fault plan.  It round-trips through JSON,
which is what makes shrunk failing cases replayable artifacts
(``repro verify --replay failure.json``).

:func:`check_scenario` is the single verdict function shared by the
random harness, the shrinker, and the CLI: build the assignment, simulate
with tracing, and run every registered invariant checker plus the
scenario-level schedulability expectation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.faults.plan import OVERRUN_POLICIES, FaultPlan
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.overhead.model import OverheadModel, overhead_model_from_spec
from repro.trace.validate import CheckContext, run_checkers


@dataclass(frozen=True)
class ScenarioTask:
    """One task's materialized parameters (nanoseconds)."""

    name: str
    wcet: int
    period: int
    deadline: int = 0  # 0 = implicit (period)
    wss: int = 64 * 1024

    def to_task(self) -> Task:
        return Task(
            name=self.name,
            wcet=self.wcet,
            period=self.period,
            deadline=self.deadline or self.period,
            wss=self.wss,
        )


@dataclass(frozen=True)
class Scenario:
    """A complete, serializable verification pipeline configuration."""

    tasks: Tuple[ScenarioTask, ...]
    n_cores: int = 2
    algorithm: str = "FP-TS"
    #: Overhead model spec: ``"zero"``, ``"paper"`` or ``"paper*K"``.
    overheads: str = "zero"
    #: Simulation horizon as a multiple of the largest period.
    duration_factor: int = 8
    tick_ns: int = 0
    sporadic_jitter: int = 0
    execution_variation: float = 0.0
    sim_seed: int = 0
    overrun_policy: str = "run-on"
    #: ``FaultPlan.to_dict()`` payload, or None for a fault-free run.
    faults: Optional[dict] = None
    #: Scheduling-class override (:data:`repro.kernel.sched_class.
    #: SCHED_CLASSES` registry name); ``None`` runs the class the
    #: algorithm's assignment records.
    sched_class: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("scenario needs at least one task")
        if self.overrun_policy not in OVERRUN_POLICIES:
            raise ValueError(
                f"unknown overrun_policy {self.overrun_policy!r}"
            )
        if self.sched_class is not None:
            from repro.kernel.sched_class import SCHED_CLASSES

            if self.sched_class not in SCHED_CLASSES:
                raise ValueError(
                    f"unknown sched_class {self.sched_class!r}; valid: "
                    f"{', '.join(sorted(SCHED_CLASSES))}"
                )

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------

    def taskset(self) -> TaskSet:
        ts = TaskSet([t.to_task() for t in self.tasks])
        return ts.assign_rate_monotonic()

    def overhead_model(self) -> OverheadModel:
        return overhead_model_from_spec(
            self.overheads, max(1, len(self.tasks) // self.n_cores)
        )

    def horizon(self) -> int:
        return self.duration_factor * max(t.period for t in self.tasks)

    def fault_plan(self) -> Optional[FaultPlan]:
        if self.faults is None:
            return None
        return FaultPlan.from_dict(self.faults)

    @property
    def is_deterministic_demand(self) -> bool:
        """True when every job's nominal demand is fixed per task (its
        raw WCET, see :func:`_expected_work`)."""
        return self.execution_variation == 0.0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["tasks"] = [asdict(t) for t in self.tasks]
        return data

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ValueError(
                f"scenario must be a JSON object, got {type(data).__name__}"
            )
        known = set(Scenario.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {sorted(unknown)}; "
                f"valid: {sorted(known)}"
            )
        kwargs = dict(data)
        kwargs["tasks"] = tuple(
            ScenarioTask(**t) for t in kwargs.get("tasks", [])
        )
        return Scenario(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_file(path: Union[str, Path]) -> "Scenario":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return Scenario.from_dict(data)

    def replaced(self, **changes) -> "Scenario":
        return replace(self, **changes)


@dataclass
class ScenarioReport:
    """Outcome of running one scenario through the full pipeline."""

    scenario: Scenario
    #: Whether the partitioning algorithm accepted the task set; rejected
    #: scenarios produce no schedule and therefore no violations.
    accepted: bool = False
    miss_count: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.violations)


def _expected_work(assignment) -> Dict[str, int]:
    """Per-task nominal demand for the ledger: the task's raw WCET the
    assignment records (capped at its stage budgets), else the summed
    stage budgets."""
    from repro.kernel.runtime import build_runtime_tasks

    return {
        rt.name: min(
            assignment.raw_wcet.get(rt.name, rt.total_budget),
            rt.total_budget,
        )
        for rt in build_runtime_tasks(assignment)
    }


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Build, simulate, and check one scenario against every oracle."""
    from repro.experiments.algorithms import build_assignment
    from repro.kernel.sim import KernelSim

    report = ScenarioReport(scenario=scenario)
    taskset = scenario.taskset()
    model = scenario.overhead_model()
    assignment = build_assignment(
        scenario.algorithm, taskset, scenario.n_cores, model
    )
    if assignment is None:
        return report
    report.accepted = True
    try:
        assignment.validate()
    except ValueError as exc:
        report.violations.append(f"assignment: {exc}")
        return report

    plan = scenario.fault_plan()
    sim = KernelSim(
        assignment,
        model,
        duration=scenario.horizon(),
        record_trace=True,
        sporadic_jitter=scenario.sporadic_jitter,
        execution_variation=scenario.execution_variation,
        seed=scenario.sim_seed,
        tick_ns=scenario.tick_ns,
        faults=plan,
        overrun_policy=scenario.overrun_policy,
        sched_class=scenario.sched_class,
    )
    result = sim.run()
    report.miss_count = result.miss_count

    # EDF ready-queue keys are reconstructed from release-event times,
    # which drift from the nominal release under tick deferral or
    # injected release jitter; the checker skips itself in that case.
    plan_has_jitter = plan is not None and not plan.is_empty and (
        plan.default.release_jitter_ns > 0
        or any(tf.release_jitter_ns > 0 for tf in plan.tasks.values())
    )
    ctx = CheckContext.from_result(
        result,
        assignment,
        overheads=model,
        expected_work=(
            _expected_work(assignment)
            if scenario.is_deterministic_demand
            else None
        ),
        edf_keys_reliable=(scenario.tick_ns == 0 and not plan_has_jitter),
    )
    for violation in run_checkers(ctx):
        report.violations.append(f"{violation.kind}: {violation.detail}")

    # Scenario-level expectation: an accepted assignment simulated under
    # analysis conditions — zero overheads, no tick deferral, no faults —
    # never misses.  (Overhead-laden runs may legitimately miss: the
    # acceptance analysis inflates budgets conservatively but the paper's
    # whole point is that measured overheads are an empirical question.)
    # Only the class the acceptance analysis modelled gets this promise:
    # overriding the scheduling class (restricted migration places whole
    # WCETs on single cores; global classes ignore the partitioning)
    # voids the per-core schedulability argument.
    clean_conditions = (
        scenario.overheads == "zero"
        and scenario.tick_ns == 0
        and (plan is None or plan.is_empty)
        and scenario.execution_variation == 0.0
        and result.sched_class == assignment.sched_class
    )
    if clean_conditions and result.miss_count:
        miss = result.misses[0]
        report.violations.append(
            "clean-miss: accepted assignment missed under analysis "
            f"conditions: {miss.task}/{miss.job_seq} {miss.kind} at "
            f"{miss.detected_at}"
        )
    # Horizon accounting can never be violated by construction of a
    # correct simulator; check it anyway — it is cheap and load-bearing.
    for core in range(scenario.n_cores):
        used = result.busy_ns[core] + result.overhead_ns[core]
        if used > result.duration:
            report.violations.append(
                f"accounting: core {core} busy+overhead {used} exceeds "
                f"horizon {result.duration}"
            )
    return report


def check_scenario(scenario: Scenario) -> List[str]:
    """Violation strings for one scenario (empty = clean)."""
    return run_scenario(scenario).violations
