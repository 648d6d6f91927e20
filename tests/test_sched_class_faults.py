"""Every scheduling class under every fault kind, against every oracle.

The matrix crosses the five registry classes that run real-time work
(``fp``, ``edf``, ``restricted``, ``global-edf``, ``global-rm``) with
the full fault vocabulary of :mod:`repro.faults.plan` — execution
overruns under each overrun policy, release jitter, overhead spikes,
dropped migrations, delayed migrations.  Each cell is a replayable
:class:`~repro.verify.scenario.Scenario`; a clean cell means every
registered invariant checker stayed silent.  A failing cell is shrunk
(:func:`~repro.verify.shrink.shrink_scenario`) and written out as a
JSON repro before the test fails, so CI uploads a minimal replayable
artifact instead of a seed.

Tier-1 runs a one-fault-per-class smoke diagonal; the full matrix is
``@pytest.mark.slow`` (CI's ``sched-classes`` job keeps it deselected,
the nightly fuzz lane picks it up).

The ``fair`` class is exercised separately: it schedules background
work *beside* a faulted RT class, so the property is coexistence (RT
oracles stay clean with fair tasks in the mix) rather than a cell of
the same matrix.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import OVERRUN_POLICIES
from repro.kernel import KernelSim
from repro.model.task import Task
from repro.model.time import MS, US
from repro.overhead.model import OverheadModel
from repro.trace.validate import CheckContext, run_checkers
from repro.verify.scenario import Scenario, ScenarioTask, run_scenario
from repro.verify.shrink import shrink_scenario, write_repro

# ----------------------------------------------------------------------
# The matrix axes
# ----------------------------------------------------------------------

#: A task set FP-TS/C=D must split on two cores (3 x 0.6 utilization):
#: migration faults have something to bite on.
SPLIT_TASKS = (
    ScenarioTask(name="a", wcet=6 * MS, period=10 * MS),
    ScenarioTask(name="b", wcet=6 * MS, period=10 * MS),
    ScenarioTask(name="c", wcet=6 * MS, period=10 * MS),
)

#: A partitionable set (no splits needed) for the FFD-based global
#: classes; varied periods so jitter and spikes reshuffle real overlap.
PACKED_TASKS = (
    ScenarioTask(name="a", wcet=2 * MS, period=8 * MS),
    ScenarioTask(name="b", wcet=5 * MS, period=14 * MS),
    ScenarioTask(name="c", wcet=4 * MS, period=20 * MS),
    ScenarioTask(name="d", wcet=6 * MS, period=33 * MS),
)

#: class label -> (tasks, algorithm, sched_class override; None runs
#: the algorithm's own class).
CLASS_CONFIGS = {
    "fp": (SPLIT_TASKS, "FP-TS", None),
    "edf": (SPLIT_TASKS, "C=D", None),
    "restricted": (SPLIT_TASKS, "FP-TS", "restricted"),
    "global-edf": (PACKED_TASKS, "FFD", "global-edf"),
    "global-rm": (PACKED_TASKS, "FFD", "global-rm"),
}

#: fault label -> (faults payload, overrun_policy, overheads spec).
#: Overhead spikes multiply the sampled overhead, so that cell runs
#: under the paper model; everything else runs zero-overhead, which
#: keeps the global preemption-order oracle armed.
FAULT_KINDS = {
    "overrun-run-on": (
        {"default": {"overrun_factor": 1.8, "overrun_probability": 0.4}},
        "run-on",
        "zero",
    ),
    "overrun-abort-job": (
        {"default": {"overrun_factor": 1.8, "overrun_probability": 0.4}},
        "abort-job",
        "zero",
    ),
    "overrun-demote": (
        {"default": {"overrun_factor": 1.8, "overrun_probability": 0.4}},
        "demote",
        "zero",
    ),
    "jitter": (
        {"default": {"release_jitter_ns": 500 * US}},
        "run-on",
        "zero",
    ),
    "overhead-spike": (
        {"overhead_spike_factor": 3.0, "overhead_spike_probability": 0.3},
        "run-on",
        "paper",
    ),
    "migration-drop": (
        {"migration_drop_probability": 0.3},
        "run-on",
        "zero",
    ),
    "migration-delay": (
        {"migration_delay_probability": 0.5, "migration_delay_ns": 100 * US},
        "run-on",
        "zero",
    ),
}

assert set(p for _, p, _ in FAULT_KINDS.values()) == set(OVERRUN_POLICIES) | {
    "run-on"
}

#: One fault kind per class — the tier-1 smoke diagonal.  Each class
#: meets the fault family most likely to break it: overruns stress the
#: budget ledger, migration faults stress the split/handoff machinery,
#: jitter stresses the shared-queue key reconstruction.
SMOKE_CELLS = [
    ("fp", "overrun-run-on"),
    ("fp", "migration-drop"),
    ("edf", "overrun-abort-job"),
    ("restricted", "overrun-demote"),
    ("restricted", "migration-delay"),
    ("global-edf", "jitter"),
    ("global-rm", "overhead-spike"),
]

ALL_CELLS = [
    (class_label, fault_label)
    for class_label in CLASS_CONFIGS
    for fault_label in FAULT_KINDS
]


def _cell_scenario(class_label: str, fault_label: str, seed: int) -> Scenario:
    tasks, algorithm, sched_class = CLASS_CONFIGS[class_label]
    faults, overrun_policy, overheads = FAULT_KINDS[fault_label]
    if overheads != "zero":
        # Overhead-laden analysis inflates budgets past what the heavy
        # split set can bear; the spike cell runs the packed set, which
        # every matrix algorithm accepts under the paper model.
        tasks = PACKED_TASKS
    return Scenario(
        tasks=tasks,
        n_cores=2,
        algorithm=algorithm,
        overheads=overheads,
        duration_factor=8,
        sim_seed=seed,
        overrun_policy=overrun_policy,
        faults=dict(faults, seed=seed),
        sched_class=sched_class,
    )


def _assert_cell_clean(scenario: Scenario, artifact_dir) -> None:
    report = run_scenario(scenario)
    assert report.accepted, (
        f"{scenario.algorithm} must accept the matrix task set"
    )
    if not report.violations:
        return
    shrunk = shrink_scenario(scenario)
    path = write_repro(
        shrunk.scenario,
        shrunk.violations or report.violations,
        out_dir=artifact_dir,
        original=scenario,
    )
    pytest.fail(
        f"{len(report.violations)} oracle violation(s); shrunk repro "
        f"written to {path}: {report.violations[0]}"
    )


@pytest.fixture
def artifact_dir(tmp_path):
    return tmp_path / "verify-failures"


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("class_label,fault_label", SMOKE_CELLS)
def test_class_fault_smoke(class_label, fault_label, artifact_dir):
    """Tier-1 diagonal: one representative fault per class."""
    _assert_cell_clean(
        _cell_scenario(class_label, fault_label, seed=23), artifact_dir
    )


@pytest.mark.slow
@pytest.mark.parametrize("class_label,fault_label", ALL_CELLS)
def test_class_fault_matrix(class_label, fault_label, artifact_dir):
    """Full cross product, three seeds per cell."""
    for seed in (1, 2, 3):
        _assert_cell_clean(
            _cell_scenario(class_label, fault_label, seed=seed),
            artifact_dir,
        )


def test_matrix_covers_every_class_and_fault():
    """The smoke diagonal touches every class; the matrix is total."""
    assert {c for c, _f in SMOKE_CELLS} == set(CLASS_CONFIGS)
    assert len(ALL_CELLS) == len(CLASS_CONFIGS) * len(FAULT_KINDS)


def test_failing_cell_produces_repro(tmp_path):
    """The artifact path is exercised, not just dead error handling: a
    scenario violating the clean-miss expectation must shrink and write
    a replayable repro."""
    # Two always-overrunning tasks on one core cannot make their
    # deadlines; force the miss and check the repro machinery end to
    # end with the scenario's own (failing) predicate.
    scenario = Scenario(
        tasks=(
            ScenarioTask(name="a", wcet=5 * MS, period=10 * MS),
            ScenarioTask(name="b", wcet=4 * MS, period=12 * MS),
        ),
        n_cores=1,
        algorithm="FFD",
        overheads="zero",
        faults={
            "default": {"overrun_factor": 3.0, "overrun_probability": 1.0},
            "seed": 5,
        },
        overrun_policy="run-on",
    )
    report = run_scenario(scenario)
    assert report.accepted and report.miss_count > 0
    failing = lambda s: run_scenario(s).miss_count > 0  # noqa: E731
    shrunk = shrink_scenario(scenario, failing=failing, max_evaluations=60)
    assert failing(shrunk.scenario)
    path = write_repro(
        shrunk.scenario,
        ["clean-miss: forced overrun"],
        out_dir=tmp_path,
        original=scenario,
    )
    assert path.exists()
    import json

    payload = json.loads(path.read_text(encoding="utf-8"))
    restored = Scenario.from_dict(payload["scenario"])
    assert failing(restored), "repro must replay to the same failure"


# ----------------------------------------------------------------------
# Fair-class coexistence under faults
# ----------------------------------------------------------------------


class TestFairCoexistenceUnderFaults:
    def _run(self, fault_label: str, seed: int = 31):
        from repro.experiments.algorithms import build_assignment
        from repro.faults.plan import FaultPlan
        from repro.model.taskset import TaskSet

        faults, overrun_policy, overheads = FAULT_KINDS[fault_label]
        taskset = TaskSet(
            [t.to_task() for t in SPLIT_TASKS]
        ).assign_rate_monotonic()
        assignment = build_assignment(
            "FP-TS", taskset, 2, OverheadModel.zero()
        )
        model = (
            OverheadModel.zero()
            if overheads == "zero"
            else OverheadModel.paper_core_i7(2)
        )
        fair_tasks = [
            Task("bg0", wcet=2 * MS, period=30 * MS),
            Task("bg1", wcet=3 * MS, period=50 * MS),
        ]
        result = KernelSim(
            assignment,
            model,
            80 * MS,
            record_trace=True,
            seed=seed,
            faults=FaultPlan.from_dict(dict(faults, seed=seed)),
            overrun_policy=overrun_policy,
            fair_tasks=fair_tasks,
        ).run()
        ctx = CheckContext.from_result(
            result,
            assignment,
            overheads=model,
            fair_tasks={t.name for t in fair_tasks},
        )
        return result, ctx

    @pytest.mark.parametrize(
        "fault_label", ["overrun-run-on", "migration-drop", "overhead-spike"]
    )
    def test_oracles_clean_with_fair_tasks_in_the_mix(self, fault_label):
        result, ctx = self._run(fault_label)
        assert run_checkers(ctx) == []
        # Fair tasks ran but never surfaced as deadline misses.
        assert any(
            result.task_stats[name].jobs_completed > 0
            for name in ("bg0", "bg1")
        )
        assert not [m for m in result.misses if m.task in ("bg0", "bg1")]
