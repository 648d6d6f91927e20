"""Metamorphic / property harness: seeded random end-to-end scenarios.

Each trial draws one random :class:`~repro.verify.scenario.Scenario`
(random constructive algorithm, workload, overhead model, simulator
configuration, optional fault plan), runs it through every registered
invariant checker (:func:`~repro.verify.scenario.check_scenario`), and
additionally applies **metamorphic mutations** — transformations of the
task set that provably preserve (or one-sidedly bound) the acceptance
verdict:

* **scale ×k** — multiplying every WCET/period/deadline by an integer
  ``k`` (and scaling the overhead model alongside) changes nothing about
  schedulability; applied under the zero-overhead model for algorithms
  whose acceptance involves no budget-splitting arithmetic (integer
  splits do not commute with scaling);
* **permute task IDs** — renaming tasks cannot change the verdict, as
  long as periods and utilizations are pairwise distinct (names only
  ever break ties);
* **add a zero-utilization task** — appending a minimal task (WCET 1,
  maximal period, hence lowest priority and smallest utilization) to a
  *rejected* set keeps it rejected for greedy partitioners: the new task
  sorts last in every assignment order, so the decisions leading to the
  original failure are untouched.  (The accept direction is *not* sound:
  knife-edge slack can flip.)

Every trial is reproducible from ``(seed, index)`` alone, which is what
lets the :mod:`~repro.verify.shrink` shrinker re-evaluate candidate
simplifications deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from repro.faults.plan import OVERRUN_POLICIES
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.verify.scenario import Scenario, ScenarioTask, check_scenario

#: Constructive algorithms (produce an assignment the simulator can run).
ALGORITHMS = ("FP-TS", "C=D", "FFD", "WFD", "BFD", "P-EDF", "SPA2")
#: Acceptance involves no integer budget-splitting, so exact ×k scaling
#: preserves the verdict bit-for-bit.
SCALE_SAFE = ("FFD", "WFD", "BFD", "P-EDF")
#: Greedy partitioners that consider tasks in a workload-derived order;
#: appending a task that sorts last cannot rescue a rejected set.
GREEDY = ("FFD", "WFD", "BFD", "FP-TS")

#: Per-trial seed stride (prime, mirrors the engine's per-point strides).
TRIAL_SEED_STRIDE = 6151


def random_scenario(rng: random.Random) -> Scenario:
    """Draw one random end-to-end scenario."""
    from repro.experiments.algorithms import ALGORITHMS as REGISTRY

    n_cores = rng.choice([2, 4])
    n_tasks = rng.randint(4, 10)
    normalized = rng.uniform(0.3, 0.9)
    algorithm = rng.choice(ALGORITHMS)
    generator = TaskSetGenerator(
        n_tasks=n_tasks,
        seed=rng.randint(0, 10**6),
        period_min=5 * MS,
        period_max=50 * MS,
        method=rng.choice(["uunifast", "randfixedsum"]),
    )
    taskset = generator.generate(normalized * n_cores)
    tasks = tuple(
        ScenarioTask(
            name=task.name,
            wcet=task.wcet,
            period=task.period,
            deadline=task.deadline,
            wss=task.wss,
        )
        for task in taskset
    )
    faults: Optional[dict] = None
    overrun_policy = "run-on"
    if rng.random() < 0.3:
        faults = {
            "default": {
                "overrun_factor": rng.choice([1.5, 2.0]),
                "overrun_probability": 0.2,
            },
            "migration_drop_probability": rng.choice([0.0, 0.0, 0.1]),
            "seed": rng.randint(0, 10**6),
        }
        overrun_policy = rng.choice(list(OVERRUN_POLICIES))
    # Occasionally override the scheduling class with restricted
    # migration (FP-keyed, so only on FP-class algorithms): its job-level
    # stage re-planning must still satisfy every structural oracle.
    sched_class = None
    if REGISTRY[algorithm].sched_class == "fp" and rng.random() < 0.2:
        sched_class = "restricted"
    return Scenario(
        tasks=tasks,
        n_cores=n_cores,
        algorithm=algorithm,
        overheads=rng.choice(["zero", "zero", "paper"]),
        duration_factor=8,
        tick_ns=rng.choice([0, 0, 0, MS]),
        sporadic_jitter=rng.choice([0, 0, MS]),
        execution_variation=rng.choice([0.0, 0.0, 0.4]),
        sim_seed=rng.randint(0, 10**6),
        overrun_policy=overrun_policy,
        faults=faults,
        sched_class=sched_class,
    )


def _scaled_taskset(taskset: TaskSet, k: int) -> TaskSet:
    scaled = [
        Task(
            name=task.name,
            wcet=task.wcet * k,
            period=task.period * k,
            deadline=task.deadline * k,
            wss=task.wss,
        )
        for task in taskset
    ]
    return TaskSet(scaled).assign_rate_monotonic()


def _renamed_taskset(taskset: TaskSet) -> TaskSet:
    tasks = list(taskset)
    renamed = [
        Task(
            name=f"m{len(tasks) - 1 - index:03d}",
            wcet=task.wcet,
            period=task.period,
            deadline=task.deadline,
            wss=task.wss,
        )
        for index, task in enumerate(tasks)
    ]
    return TaskSet(renamed).assign_rate_monotonic()


def _parameters_distinct(taskset: TaskSet) -> bool:
    """Names can only ever break ties: require there be none to break."""
    periods = [task.period for task in taskset]
    utils = [Fraction(task.wcet, task.period) for task in taskset]
    return len(set(periods)) == len(periods) and len(set(utils)) == len(
        utils
    )


def metamorphic_checks(scenario: Scenario) -> List[str]:
    """Violation strings from the semantics-preserving mutations."""
    from repro.experiments.algorithms import accept

    violations: List[str] = []
    taskset = scenario.taskset()
    model = scenario.overhead_model()
    base = accept(scenario.algorithm, taskset, scenario.n_cores, model)

    if scenario.overheads == "zero" and scenario.algorithm in SCALE_SAFE:
        k = 3
        mutated = accept(
            scenario.algorithm,
            _scaled_taskset(taskset, k),
            scenario.n_cores,
            model.scaled(k),
        )
        if mutated != base:
            violations.append(
                f"metamorphic-scale: {scenario.algorithm} verdict flipped "
                f"{base} -> {mutated} under x{k} time scaling"
            )

    if _parameters_distinct(taskset):
        mutated = accept(
            scenario.algorithm,
            _renamed_taskset(taskset),
            scenario.n_cores,
            model,
        )
        if mutated != base:
            violations.append(
                f"metamorphic-permute: {scenario.algorithm} verdict "
                f"flipped {base} -> {mutated} under task renaming"
            )

    if not base and scenario.algorithm in GREEDY:
        tiny = Task(
            name="zzz-tiny",
            wcet=1,
            period=max(task.period for task in taskset),
            wss=min(task.wss for task in taskset),
        )
        mutated = accept(
            scenario.algorithm,
            TaskSet(list(taskset) + [tiny]).assign_rate_monotonic(),
            scenario.n_cores,
            model,
        )
        if mutated:
            violations.append(
                f"metamorphic-add-tiny: {scenario.algorithm} accepted a "
                "rejected set after adding a zero-utilization task"
            )
    return violations


def full_check(scenario: Scenario) -> List[str]:
    """Invariant oracles plus metamorphic relations (empty = clean).

    Deterministic in the scenario alone — the predicate both the harness
    and the shrinker evaluate.
    """
    return check_scenario(scenario) + metamorphic_checks(scenario)


@dataclass
class TrialFailure:
    """One failing harness trial, pre-shrink."""

    index: int
    scenario: Scenario
    violations: List[str]

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "scenario": self.scenario.to_dict(),
            "violations": list(self.violations),
        }


@dataclass
class HarnessReport:
    """Aggregate outcome of a harness run."""

    trials: int = 0
    seed: int = 0
    failures: List[TrialFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_trial(index: int, seed: int) -> Optional[TrialFailure]:
    """Run one trial; a :class:`TrialFailure` if any oracle fired."""
    rng = random.Random(seed + TRIAL_SEED_STRIDE * index)
    scenario = random_scenario(rng)
    violations = full_check(scenario)
    if violations:
        return TrialFailure(
            index=index, scenario=scenario, violations=violations
        )
    return None


def run_harness(
    trials: int, seed: int, log=None
) -> HarnessReport:
    """Run ``trials`` seeded trials in-process."""
    report = HarnessReport(trials=trials, seed=seed)
    for index in range(trials):
        failure = run_trial(index, seed)
        if failure is not None:
            report.failures.append(failure)
            if log is not None:
                log(
                    f"trial {index}: {len(failure.violations)} "
                    f"violation(s): {failure.violations[0]}"
                )
    return report
