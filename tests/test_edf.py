"""Tests for EDF analysis, partitioned EDF, and the EDF simulator policy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.edf import (
    demand_bound,
    edf_schedulable,
    edf_test_limit,
    edf_utilization_schedulable,
)
from repro.kernel.sim import KernelSim
from repro.model.assignment import Assignment, Entry, EntryKind
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.overhead.model import OverheadModel
from repro.partition.edf import (
    partition_edf_first_fit,
    partition_edf_worst_fit,
)
from repro.partition.heuristics import partition_first_fit_decreasing


class TestDemandBound:
    def test_zero_before_first_deadline(self):
        assert demand_bound([(2, 5, 5)], 4) == 0

    def test_one_job_at_deadline(self):
        assert demand_bound([(2, 5, 5)], 5) == 2

    def test_accumulates_over_periods(self):
        assert demand_bound([(2, 5, 5)], 15) == 6

    def test_constrained_deadline(self):
        assert demand_bound([(2, 10, 4)], 4) == 2
        assert demand_bound([(2, 10, 4)], 13) == 2
        assert demand_bound([(2, 10, 4)], 14) == 4

    def test_accepts_task_objects(self):
        task = Task("t", wcet=2, period=5)
        assert demand_bound([task], 5) == 2


class TestEdfSchedulable:
    def test_empty(self):
        assert edf_schedulable([])

    def test_full_utilization_implicit(self):
        assert edf_schedulable([(5, 10, 10), (5, 10, 10)])

    def test_overload_rejected(self):
        assert not edf_schedulable([(6, 10, 10), (5, 10, 10)])

    def test_constrained_infeasible(self):
        # Two jobs of 3 due at 5: demand 6 > 5.
        assert not edf_schedulable([(3, 10, 5), (3, 10, 5)])

    def test_constrained_feasible(self):
        assert edf_schedulable([(2, 10, 5), (2, 10, 5)])

    def test_edf_beats_rm_on_nonharmonic_full_load(self):
        """U = 1 non-harmonic: EDF exact, RM rejects."""
        triples = [(5, 10, 10), (7, 14, 14)]
        assert edf_schedulable(triples)
        from repro.analysis.rta import response_time

        # RM: lower task 7 + ceil(R/10)*5 <= 14? R=7+5=12 -> 7+10=17 > 14.
        assert response_time(7, [(5, 10, 0)], limit=14) is None

    def test_limit_positive_for_constrained(self):
        assert edf_test_limit([(2, 10, 5)]) >= 5

    def test_utilization_shortcut(self):
        assert edf_utilization_schedulable([(5, 10, 10), (5, 10, 10)])
        assert not edf_utilization_schedulable([(6, 10, 10), (5, 10, 10)])

    @given(
        specs=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),
                st.integers(min_value=20, max_value=200),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_implicit_deadline_matches_utilization(self, specs):
        triples = [(c, t, t) for c, t in specs]
        utilization = sum(c / t for c, t, _d in triples)
        assert edf_schedulable(triples) == (utilization <= 1.0 + 1e-12)

    @given(
        specs=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10),
                st.integers(min_value=20, max_value=100),
                st.integers(min_value=10, max_value=100),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_constrained_no_harder_than_implicit(self, specs):
        """Shrinking deadlines can only hurt schedulability."""
        constrained = [(c, t, min(d, t)) for c, t, d in specs if c <= min(d, t)]
        if not constrained:
            return
        implicit = [(c, t, t) for c, t, _d in constrained]
        if edf_schedulable(constrained):
            assert edf_schedulable(implicit)


class TestPartitionedEdf:
    def test_packs_full_cores(self):
        # Two cores, four 0.5 tasks: P-EDF fits exactly.
        ts = TaskSet(
            [Task(f"t{i}", wcet=5, period=10) for i in range(4)]
        ).assign_rate_monotonic()
        assignment = partition_edf_first_fit(ts, 2)
        assert assignment is not None
        for core in assignment.cores:
            assert core.utilization == pytest.approx(1.0)

    def test_dominates_partitioned_rm(self):
        generator = TaskSetGenerator(n_tasks=10, seed=3)
        wins = 0
        for _ in range(20):
            ts = generator.generate(3.4)
            rm = partition_first_fit_decreasing(ts, 4) is not None
            edf = partition_edf_first_fit(ts, 4) is not None
            if rm:
                assert edf, "P-EDF must accept whatever partitioned RM does"
            if edf and not rm:
                wins += 1
        assert wins >= 0  # informational; dominance asserted above

    def test_worst_fit_variant(self):
        ts = TaskSet(
            [Task(f"t{i}", wcet=2, period=10) for i in range(4)]
        ).assign_rate_monotonic()
        assignment = partition_edf_worst_fit(ts, 2)
        assert assignment is not None
        utils = [core.utilization for core in assignment.cores]
        assert utils[0] == pytest.approx(utils[1])

    def test_rejects_overload(self):
        ts = TaskSet(
            [Task(f"t{i}", wcet=8, period=10) for i in range(3)]
        ).assign_rate_monotonic()
        assert partition_edf_first_fit(ts, 2) is None


class TestEdfSimulatorPolicy:
    def _edf_assignment(self, specs, n_cores=1):
        ts = TaskSet(
            [Task(f"t{i}", wcet=c, period=p) for i, (c, p) in enumerate(specs)]
        ).assign_rate_monotonic()
        assignment = partition_edf_first_fit(ts, n_cores)
        assert assignment is not None
        return assignment

    def test_full_utilization_no_misses(self):
        # (5,10) + (7,14): U = 1, EDF schedules it, RM cannot.
        assignment = self._edf_assignment([(5, 10), (7, 14)])
        result = KernelSim(
            assignment, OverheadModel.zero(), duration=700, sched_class="edf"
        ).run()
        assert result.miss_count == 0
        assert result.busy_ns[0] == 700  # never idle at U = 1

    def test_same_set_misses_under_fp(self):
        assignment = self._edf_assignment([(5, 10), (7, 14)])
        result = KernelSim(
            assignment, OverheadModel.zero(), duration=700, sched_class="fp"
        ).run()
        assert result.miss_count > 0

    def test_invalid_policy(self):
        assignment = self._edf_assignment([(1, 10)])
        with pytest.raises(ValueError):
            KernelSim(
                assignment, OverheadModel.zero(), duration=100, sched_class="lifo"
            )

    def test_edf_runs_split_tasks_with_stage_deadlines(self):
        """Split tasks execute under EDF using per-stage local deadlines
        (the C=D mechanism); the FP-TS split also happens to be feasible
        this way because its body sits at the front of the EDF order."""
        from repro.semipart.fpts import fpts_partition

        ts = TaskSet(
            [
                Task("a", wcet=6 * MS, period=10 * MS),
                Task("b", wcet=6 * MS, period=10 * MS),
                Task("c", wcet=6 * MS, period=10 * MS),
            ]
        ).assign_rate_monotonic()
        assignment = fpts_partition(ts, 2)
        assert assignment is not None
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            duration=100 * MS,
            sched_class="edf",
        ).run()
        assert result.migrations == 10

    def test_edf_with_overheads(self):
        assignment = self._edf_assignment([(2, 10), (3, 15)])
        result = KernelSim(
            assignment,
            OverheadModel.paper_core_i7(4).scaled(0.0001),
            duration=3000,
            sched_class="edf",
        ).run()
        assert result.miss_count == 0
