"""Tests for shared resources: model, blocking analysis, IPCP simulation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.blocking import (
    assignment_schedulable_with_resources,
    blocking_term,
    core_schedulable_with_resources,
    npcs_model,
)
from repro.analysis.rta import core_schedulable
from repro.kernel.sim import KernelSim
from repro.model.assignment import Assignment, Entry, EntryKind
from repro.model.resources import CriticalSection, ResourceModel
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.overhead.model import OverheadModel
from repro.partition.heuristics import partition_first_fit_decreasing


def _entry(task, priority):
    return Entry(
        kind=EntryKind.NORMAL,
        task=task,
        core=0,
        budget=task.wcet,
        local_priority=priority,
    )


def _single_core(specs):
    """specs: list of (name, wcet, period) in priority order."""
    assignment = Assignment(1)
    tasks = []
    for priority, (name, wcet, period) in enumerate(specs):
        task = Task(name, wcet=wcet, period=period, priority=priority)
        tasks.append(task)
        assignment.add_entry(_entry(task, priority))
    return assignment, tasks


class TestResourceModel:
    def test_add_and_query(self):
        model = ResourceModel()
        model.add("a", CriticalSection("r", start=0, duration=2))
        assert model.sections_of("a")[0].end == 2
        assert model.sections_of("ghost") == []
        assert model.resources() == ["r"]
        assert not model.is_empty

    def test_overlap_rejected(self):
        model = ResourceModel()
        model.add("a", CriticalSection("r", start=0, duration=5))
        with pytest.raises(ValueError):
            model.add("a", CriticalSection("q", start=3, duration=2))

    def test_adjacent_sections_allowed(self):
        model = ResourceModel()
        model.add("a", CriticalSection("r", start=0, duration=2))
        model.add("a", CriticalSection("q", start=2, duration=2))
        assert len(model.sections_of("a")) == 2

    def test_invalid_section(self):
        with pytest.raises(ValueError):
            CriticalSection("r", start=-1, duration=2)
        with pytest.raises(ValueError):
            CriticalSection("r", start=0, duration=0)

    def test_validate_against_wcet(self):
        model = ResourceModel()
        model.add("a", CriticalSection("r", start=5, duration=10))
        with pytest.raises(ValueError):
            model.validate_against([Task("a", wcet=8, period=100)])
        model2 = ResourceModel()
        model2.add("ghost", CriticalSection("r", start=0, duration=1))
        with pytest.raises(ValueError):
            model2.validate_against([Task("a", wcet=8, period=100)])

    def test_ceilings(self):
        model = ResourceModel()
        model.add("hi", CriticalSection("r", start=0, duration=1))
        model.add("lo", CriticalSection("r", start=0, duration=1))
        model.add("lo", CriticalSection("q", start=2, duration=1))
        ceilings = model.ceilings({"hi": 0, "lo": 3})
        assert ceilings == {"r": 0, "q": 3}

    def test_max_section(self):
        model = ResourceModel()
        model.add("a", CriticalSection("r", start=0, duration=2))
        model.add("a", CriticalSection("r", start=5, duration=7))
        assert model.max_section_of("a") == 7
        assert model.max_section_of("b") == 0


class TestBlockingAnalysis:
    def test_no_resources_equals_plain_rta(self):
        assignment, _tasks = _single_core(
            [("hi", 2, 10), ("lo", 5, 20)]
        )
        plain = core_schedulable(assignment.cores[0].entries)
        blocked = core_schedulable_with_resources(
            assignment.cores[0].entries, ResourceModel()
        )
        assert plain.schedulable == blocked.schedulable
        assert plain.response_of("hi") == blocked.response_of("hi")

    def test_blocking_term_single_lower_section(self):
        model = ResourceModel()
        model.add("hi", CriticalSection("r", start=0, duration=1))
        model.add("lo", CriticalSection("r", start=0, duration=4))
        names = ["hi", "lo"]
        ceilings = model.ceilings({"hi": 0, "lo": 1})
        assert blocking_term("hi", 0, names, model, ceilings) == 4
        assert blocking_term("lo", 1, names, model, ceilings) == 0

    def test_low_ceiling_does_not_block(self):
        """A resource used only by low-priority tasks never blocks high."""
        model = ResourceModel()
        model.add("mid", CriticalSection("r", start=0, duration=4))
        model.add("lo", CriticalSection("r", start=0, duration=6))
        names = ["hi", "mid", "lo"]
        ceilings = model.ceilings({"hi": 0, "mid": 1, "lo": 2})
        # r's ceiling is 1 (mid): blocks mid (6 from lo) but not hi.
        assert blocking_term("hi", 0, names, model, ceilings) == 0
        assert blocking_term("mid", 1, names, model, ceilings) == 6

    def test_blocking_inflates_response(self):
        assignment, _tasks = _single_core([("hi", 2, 10), ("lo", 8, 40)])
        model = ResourceModel()
        model.add("hi", CriticalSection("r", start=0, duration=1))
        model.add("lo", CriticalSection("r", start=1, duration=5))
        analysis = core_schedulable_with_resources(
            assignment.cores[0].entries, model
        )
        assert analysis.response_of("hi") == 2 + 5  # C + B

    def test_blocking_can_reject(self):
        assignment, _tasks = _single_core(
            [("hi", 4, 10, ), ("lo", 20, 100)]
        )
        model = ResourceModel()
        model.add("hi", CriticalSection("r", start=0, duration=1))
        model.add("lo", CriticalSection("r", start=0, duration=7))
        analysis = core_schedulable_with_resources(
            assignment.cores[0].entries, model
        )
        # hi: 4 + 7 = 11 > 10.
        assert not analysis.schedulable

    def test_split_tasks_with_sections_rejected(self):
        from repro.semipart.fpts import fpts_partition
        from repro.model.time import MS

        ts = TaskSet(
            [
                Task("a", wcet=6 * MS, period=10 * MS),
                Task("b", wcet=6 * MS, period=10 * MS),
                Task("c", wcet=6 * MS, period=10 * MS),
            ]
        ).assign_rate_monotonic()
        assignment = fpts_partition(ts, 2)
        split_name = next(iter(assignment.split_tasks))
        model = ResourceModel()
        model.add(split_name, CriticalSection("r", start=0, duration=100))
        with pytest.raises(ValueError):
            assignment_schedulable_with_resources(assignment, model)

    def test_npcs_conversion(self):
        model = ResourceModel()
        model.add("hi", CriticalSection("r", start=0, duration=1))
        model.add("lo", CriticalSection("q", start=0, duration=9))
        npcs = npcs_model(model)
        names = ["hi", "lo"]
        ceilings = npcs.ceilings({"hi": 0, "lo": 1})
        # Under NPCS, even unrelated sections block everyone above.
        assert blocking_term("hi", 0, names, npcs, ceilings) == 9


class TestIpcpSimulation:
    def test_blocking_observed(self):
        assignment, _tasks = _single_core([("hi", 2, 20), ("lo", 10, 40)])
        model = ResourceModel()
        model.add("hi", CriticalSection("lock", start=0, duration=1))
        model.add("lo", CriticalSection("lock", start=1, duration=5))
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            duration=40,
            release_offsets={"hi": 3, "lo": 0},
            resources=model,
        ).run()
        assert result.miss_count == 0
        # hi released at 3 waits for lo's CS (1..6): response = 3 + 2.
        assert result.task_stats["hi"].max_response == 5

    def test_no_blocking_outside_sections(self):
        assignment, _tasks = _single_core([("hi", 2, 20), ("lo", 10, 40)])
        model = ResourceModel()
        model.add("lo", CriticalSection("lock", start=8, duration=2))
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            duration=40,
            release_offsets={"hi": 3, "lo": 0},
            resources=model,
        ).run()
        # hi arrives while lo is *outside* its CS: immediate preemption.
        assert result.task_stats["hi"].max_response == 2

    def test_intermediate_priority_also_deferred(self):
        """IPCP: a mid-priority task that doesn't use the resource is
        still deferred while the ceiling is active."""
        assignment, _tasks = _single_core(
            [("hi", 1, 50), ("mid", 2, 50), ("lo", 10, 50)]
        )
        model = ResourceModel()
        model.add("hi", CriticalSection("lock", start=0, duration=1))
        model.add("lo", CriticalSection("lock", start=0, duration=6))
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            duration=50,
            release_offsets={"hi": 2, "mid": 2, "lo": 0},
            resources=model,
        ).run()
        # lo holds the ceiling (=hi) during 0..6: both wait until 6.
        assert result.task_stats["hi"].max_response == 1 + 4  # 2..6 blocked
        assert result.task_stats["mid"].max_response == 4 + 1 + 2

    def test_edf_policy_rejected_with_resources(self):
        assignment, _tasks = _single_core([("a", 2, 10)])
        model = ResourceModel()
        model.add("a", CriticalSection("r", start=0, duration=1))
        with pytest.raises(ValueError):
            KernelSim(
                assignment,
                OverheadModel.zero(),
                duration=100,
                sched_class="edf",
                resources=model,
            )

    def test_sections_beyond_wcet_rejected(self):
        assignment, _tasks = _single_core([("a", 2, 10)])
        model = ResourceModel()
        model.add("a", CriticalSection("r", start=1, duration=5))
        with pytest.raises(ValueError):
            KernelSim(
                assignment,
                OverheadModel.zero(),
                duration=100,
                resources=model,
            )


class TestSoundnessWithResources:
    @given(seed=st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_blocking_analysis_sound_against_simulation(self, seed):
        """Blocking-aware RTA acceptance => IPCP simulation meets every
        deadline (random workloads, random critical sections)."""
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        specs = []
        for i in range(n):
            period = rng.randint(20, 200)
            wcet = rng.randint(2, max(2, period // (n + 1)))
            specs.append((f"t{i}", wcet, period))
        specs.sort(key=lambda s: s[2])
        assignment, tasks = _single_core(specs)
        model = ResourceModel()
        resources = [f"r{k}" for k in range(rng.randint(1, 2))]
        for name, wcet, _period in specs:
            if rng.random() < 0.7 and wcet >= 2:
                start = rng.randint(0, wcet - 2)
                duration = rng.randint(1, wcet - start - 1 or 1)
                model.add(
                    name,
                    CriticalSection(
                        rng.choice(resources), start=start, duration=duration
                    ),
                )
        analysis = core_schedulable_with_resources(
            assignment.cores[0].entries, model
        )
        if not analysis.schedulable:
            return
        horizon = 6 * max(period for _n, _c, period in specs)
        offsets = {
            name: rng.randint(0, period)
            for name, _c, period in specs
        }
        result = KernelSim(
            assignment,
            OverheadModel.zero(),
            duration=horizon,
            release_offsets=offsets,
            resources=model,
        ).run()
        assert result.miss_count == 0, (specs, model.sections, result.misses[:2])
