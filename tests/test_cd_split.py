"""Tests for C=D semi-partitioned EDF splitting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.edf import edf_schedulable
from repro.kernel.sim import KernelSim
from repro.model.assignment import EntryKind
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS, SEC
from repro.overhead.model import OverheadModel
from repro.partition.edf import partition_edf_first_fit
from repro.semipart.cd_split import CdSplitConfig, cd_split_partition
from repro.trace.validate import validate_trace


def _ts(*specs):
    return TaskSet(
        [Task(f"t{i}", wcet=c, period=p) for i, (c, p) in enumerate(specs)]
    ).assign_rate_monotonic()


class TestBasics:
    def test_requires_priorities(self):
        with pytest.raises(ValueError):
            cd_split_partition(TaskSet([Task("a", wcet=1, period=10)]), 2)

    def test_empty(self):
        assert cd_split_partition(TaskSet(), 2) is not None

    def test_no_split_when_partitionable(self):
        ts = _ts((3, 10), (4, 20))
        assignment = cd_split_partition(ts, 2)
        assert assignment is not None
        assert assignment.n_split_tasks == 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CdSplitConfig(split_cost=-1)
        with pytest.raises(ValueError):
            CdSplitConfig(min_chunk=0)


class TestSplitting:
    def test_splits_three_heavy_on_two_cores(self):
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        assert partition_edf_first_fit(ts, 2) is None
        assignment = cd_split_partition(ts, 2)
        assert assignment is not None
        assert assignment.n_split_tasks == 1

    def test_chunk_has_cd_property(self):
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        assignment = cd_split_partition(ts, 2)
        bodies = [
            e for e in assignment.entries() if e.kind == EntryKind.BODY
        ]
        assert bodies
        for body in bodies:
            assert body.deadline == body.budget  # C = D

    def test_final_piece_deadline_reduced(self):
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        assignment = cd_split_partition(ts, 2)
        tails = [e for e in assignment.entries() if e.kind == EntryKind.TAIL]
        assert len(tails) == 1
        tail = tails[0]
        assert tail.deadline == tail.task.deadline - tail.jitter

    def test_cores_remain_edf_schedulable(self):
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        assignment = cd_split_partition(ts, 2)
        for core in assignment.cores:
            triples = [
                (e.budget, e.period - e.jitter, e.deadline)
                for e in core.entries
            ]
            assert edf_schedulable(triples)

    def test_overload_rejected(self):
        ts = _ts((8, 10), (8, 10), (8, 10))
        assert cd_split_partition(ts, 2) is None

    def test_exceeds_fpts_capacity_on_edf_friendly_sets(self):
        """C=D handles the (5,10)+(7,14) style non-harmonic full loads that
        defeat RM on each core."""
        ts = _ts((5, 10), (7, 14), (5, 10), (7, 14))
        config = CdSplitConfig(min_chunk=1)
        assignment = cd_split_partition(ts, 2, config)
        assert assignment is not None


class TestDominance:
    @given(seed=st.integers(min_value=0, max_value=120))
    @settings(max_examples=40, deadline=None)
    def test_dominates_partitioned_edf(self, seed):
        generator = TaskSetGenerator(n_tasks=8, seed=seed)
        ts = generator.generate(3.5)
        if partition_edf_first_fit(ts, 4) is not None:
            assert cd_split_partition(ts, 4) is not None

    @given(seed=st.integers(min_value=0, max_value=80))
    @settings(max_examples=25, deadline=None)
    def test_structure_valid(self, seed):
        generator = TaskSetGenerator(n_tasks=9, seed=seed)
        ts = generator.generate(3.8)
        assignment = cd_split_partition(ts, 4)
        if assignment is None:
            return
        assignment.validate()
        for split in assignment.split_tasks.values():
            assert split.subtasks[-1].is_tail
            assert all(s.budget > 0 for s in split.subtasks)


class TestSimulation:
    def test_simulated_under_edf_policy_no_misses(self):
        ts = _ts((6 * MS, 10 * MS), (6 * MS, 10 * MS), (6 * MS, 10 * MS))
        assignment = cd_split_partition(ts, 2)
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            duration=1 * SEC,
            sched_class="edf",
            record_trace=True,
        ).run()
        assert result.miss_count == 0
        assert result.migrations == 100
        assert validate_trace(result.trace, assignment) == []

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_accepted_sets_meet_deadlines_in_simulation(self, seed):
        generator = TaskSetGenerator(
            n_tasks=6, seed=seed, period_min=5 * MS, period_max=50 * MS
        )
        ts = generator.generate(1.8)
        assignment = cd_split_partition(ts, 2)
        if assignment is None:
            return
        horizon = 10 * max(task.period for task in ts)
        result = KernelSim(
            assignment, OverheadModel.zero(), duration=horizon, sched_class="edf"
        ).run()
        assert result.miss_count == 0, result.misses[:3]

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=12, deadline=None)
    def test_overhead_aware_acceptance_is_sound(self, seed):
        """Overhead-aware C=D acceptance => EDF simulation *with* the
        overheads injected and raw WCETs meets all deadlines."""
        from repro.overhead.accounting import inflate_taskset

        model = OverheadModel.paper_core_i7(3)
        generator = TaskSetGenerator(
            n_tasks=6, seed=seed, period_min=5 * MS, period_max=50 * MS
        )
        ts = generator.generate(1.7)
        analysed = inflate_taskset(ts, model)
        config = CdSplitConfig.from_model(
            model, cpmd_wss=max(t.wss for t in ts)
        )
        assignment = cd_split_partition(analysed, 2, config)
        if assignment is None:
            return
        horizon = 10 * max(task.period for task in ts)
        result = KernelSim(
            assignment,
            model,
            duration=horizon,
            sched_class="edf",
            execution_times={t.name: t.wcet for t in ts},
        ).run()
        assert result.miss_count == 0, result.misses[:3]
