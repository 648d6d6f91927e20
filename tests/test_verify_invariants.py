"""The invariant-oracle registry: clean runs stay clean, corrupted or
buggy runs are flagged by the right checker."""

from __future__ import annotations

import pytest

from repro.experiments.algorithms import build_assignment
from repro.kernel.sim import KernelSim
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.overhead.model import OverheadModel
from repro.trace.validate import (
    STRUCTURAL_CHECKS,
    CheckContext,
    checker_names,
    register_checker,
    run_checkers,
    validate_trace,
)
from repro.verify import Scenario, ScenarioTask, check_scenario

EXPECTED_CHECKERS = set(STRUCTURAL_CHECKS) | {
    "preemption-order",
    "overhead-ledger",
    "budget-conservation",
    "handoff-order",
}


def _two_task_scenario() -> Scenario:
    """One core; the short task must preempt the long one mid-job."""
    return Scenario(
        tasks=(
            ScenarioTask(name="short", wcet=1 * MS, period=10 * MS),
            ScenarioTask(name="long", wcet=15 * MS, period=40 * MS),
        ),
        n_cores=1,
        algorithm="FFD",
        duration_factor=2,
    )


def _simulated_context(overheads=None):
    """A full CheckContext from one small overhead-laden FP-TS-style run."""
    model = overheads or OverheadModel.paper_core_i7(2)
    taskset = TaskSet(
        [
            Task("a", wcet=2 * MS, period=10 * MS),
            Task("b", wcet=6 * MS, period=20 * MS),
            Task("c", wcet=8 * MS, period=40 * MS),
        ]
    ).assign_rate_monotonic()
    assignment = build_assignment("FFD", taskset, 2, OverheadModel.zero())
    assert assignment is not None
    result = KernelSim(
        assignment,
        model,
        duration=80 * MS,
        record_trace=True,
    ).run()
    expected = {t.name: t.wcet for t in taskset}
    return (
        CheckContext.from_result(
            result, assignment, overheads=model,
            expected_work=expected,
        ),
        result,
        assignment,
    )


class TestRegistry:
    def test_all_checkers_registered(self):
        assert EXPECTED_CHECKERS <= set(checker_names())

    def test_unknown_checker_name_raises(self):
        ctx, _result, _assignment = _simulated_context()
        with pytest.raises(KeyError):
            run_checkers(ctx, ["no-such-checker"])

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_checker("core-overlap")(lambda ctx: [])

    def test_legacy_validate_trace_runs_structural_subset(self):
        ctx, result, assignment = _simulated_context()
        assert validate_trace(result.trace, assignment) == []

    def test_ready_events_are_recorded(self):
        _ctx, result, _assignment = _simulated_context()
        kinds = {event[1] for event in result.events}
        assert "ready" in kinds


class TestCleanRuns:
    def test_all_checkers_pass_on_clean_run(self):
        ctx, _result, _assignment = _simulated_context()
        assert run_checkers(ctx) == []

    def test_all_checkers_pass_under_edf(self):
        scenario = Scenario(
            tasks=(
                ScenarioTask(name="a", wcet=2 * MS, period=10 * MS),
                ScenarioTask(name="b", wcet=6 * MS, period=20 * MS),
                ScenarioTask(name="c", wcet=9 * MS, period=40 * MS),
            ),
            n_cores=2,
            algorithm="P-EDF",
            overheads="paper",
            duration_factor=3,
        )
        assert check_scenario(scenario) == []


class TestPreemptionOrder:
    def test_clean_preemptive_schedule_passes(self):
        assert check_scenario(_two_task_scenario()) == []

    def test_skipped_preemption_check_is_caught(self, monkeypatch):
        """The ISSUE's deliberate bug: KernelSim._would_preempt lobotomized."""
        monkeypatch.setattr(
            KernelSim, "_would_preempt", lambda self, core: False
        )
        violations = check_scenario(_two_task_scenario())
        assert any(v.startswith("preemption-order:") for v in violations)

    def test_inverted_priority_dispatch_is_caught(self, monkeypatch):
        """A max-heap kernel (always runs the *lowest* priority job)."""
        original = KernelSim._key_of
        monkeypatch.setattr(
            KernelSim,
            "_key_of",
            lambda self, core, job: tuple(-k for k in original(self, core, job)),
        )
        violations = check_scenario(_two_task_scenario())
        assert any(v.startswith("preemption-order:") for v in violations)


class TestOverheadLedger:
    def test_counter_mismatch_is_caught(self):
        ctx, _result, _assignment = _simulated_context()
        ctx.overhead_ns[0] += 1
        violations = run_checkers(ctx, ["overhead-ledger"])
        assert len(violations) == 1
        assert violations[0].kind == "overhead-ledger"

    def test_zero_overhead_run_balances(self):
        ctx, result, _assignment = _simulated_context(
            overheads=OverheadModel.zero()
        )
        assert all(n == 0 for n in result.overhead_ns)
        assert run_checkers(ctx, ["overhead-ledger"]) == []


class TestBudgetConservation:
    def test_job_count_tampering_is_caught(self):
        ctx, _result, _assignment = _simulated_context()
        next(iter(ctx.task_stats.values())).jobs_released += 2
        violations = run_checkers(ctx, ["budget-conservation"])
        assert violations and violations[0].kind == "budget-conservation"

    def test_execution_ledger_tampering_is_caught(self):
        ctx, _result, _assignment = _simulated_context()
        # Claim a task did twice the work its trace shows.
        name = next(iter(ctx.expected_work))
        ctx.expected_work[name] *= 4
        violations = run_checkers(ctx, ["budget-conservation"])
        assert violations and violations[0].kind == "budget-conservation"

    def test_holds_under_fault_plan(self):
        scenario = Scenario(
            tasks=(
                ScenarioTask(name="a", wcet=2 * MS, period=10 * MS),
                ScenarioTask(name="b", wcet=5 * MS, period=20 * MS),
                ScenarioTask(name="c", wcet=8 * MS, period=40 * MS),
            ),
            n_cores=2,
            algorithm="FFD",
            duration_factor=4,
            overrun_policy="abort-job",
            faults={
                "default": {
                    "overrun_factor": 2.0,
                    "overrun_probability": 0.5,
                },
                "seed": 11,
            },
        )
        assert check_scenario(scenario) == []


def _split_context():
    """An FP-TS assignment guaranteed to contain a split task."""
    taskset = TaskSet(
        [
            Task("a", wcet=6 * MS, period=10 * MS),
            Task("b", wcet=6 * MS, period=10 * MS),
            Task("c", wcet=6 * MS, period=10 * MS),
        ]
    ).assign_rate_monotonic()
    assignment = build_assignment(
        "FP-TS", taskset, 2, OverheadModel.zero()
    )
    assert assignment is not None and assignment.split_tasks
    result = KernelSim(
        assignment, OverheadModel.zero(), duration=40 * MS,
        record_trace=True,
    ).run()
    return result, assignment


class TestHandoffOrder:
    def test_split_schedule_passes(self):
        result, assignment = _split_context()
        ctx = CheckContext.from_result(result, assignment)
        assert run_checkers(ctx, ["handoff-order"]) == []

    def test_stage_skip_is_caught(self):
        result, assignment = _split_context()
        split_name = next(iter(assignment.split_tasks))
        stage_cores = [
            entry.core
            for entry in sorted(
                assignment.entries_for_task(split_name),
                key=lambda e: e.subtask.index,
            )
        ]
        # Teleport the job's first-stage execution to the last stage's
        # core: the job now "starts" mid-pipeline.
        tampered = []
        for core, start, end, label, kind in result.trace:
            if (
                kind == "exec"
                and label.split("/", 1)[0] == split_name
                and core == stage_cores[0]
            ):
                core = stage_cores[-1]
            tampered.append((core, start, end, label, kind))
        ctx = CheckContext(trace=tampered, assignment=assignment)
        violations = run_checkers(ctx, ["handoff-order"])
        assert violations and violations[0].kind == "handoff-order"
