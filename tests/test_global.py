"""Tests for global scheduling: bounds, and the kernel simulator running
the shared-queue ``global-rm`` / ``global-edf`` classes with zero
overheads (the idealised global baseline)."""

from __future__ import annotations

import pytest

from repro.analysis.global_bounds import (
    global_edf_bound,
    global_edf_gfb_schedulable,
    global_rm_us_bound,
    global_rm_us_schedulable,
)
from repro.kernel.global_sim import build_global_assignment
from repro.kernel.sim import KernelSim
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.overhead.model import OverheadModel


def _ts(*specs):
    return TaskSet(
        [Task(f"t{i}", wcet=c, period=p) for i, (c, p) in enumerate(specs)]
    ).assign_rate_monotonic()


def _global_sim(ts, n_cores, sched_class, duration):
    return KernelSim(
        build_global_assignment(ts, n_cores),
        OverheadModel.zero(),
        duration,
        sched_class=sched_class,
    )


def _misses(result):
    """Overrun and late misses; jobs merely unfinished at the horizon
    do not count."""
    return sum(1 for miss in result.misses if miss.kind in ("overrun", "late"))


class TestBounds:
    def test_gfb_accepts_light_sets(self):
        ts = _ts((1, 10), (1, 10), (1, 10))
        assert global_edf_gfb_schedulable(ts, 2)

    def test_gfb_penalises_heavy_tasks(self):
        # U = 1.2 but u_max = 0.9: bound = 2 - 0.9 = 1.1 < 1.2.
        ts = _ts((9, 10), (3, 10))
        assert not global_edf_gfb_schedulable(ts, 2)

    def test_gfb_bound_value(self):
        assert global_edf_bound(4, 0.5) == pytest.approx(2.5)

    def test_rm_us_bound_tends_to_third(self):
        assert global_rm_us_bound(100) == pytest.approx(100 / 3, rel=0.05)

    def test_rm_us_accepts_below_bound(self):
        ts = _ts((1, 10), (1, 10))
        assert global_rm_us_schedulable(ts, 2)

    def test_rm_us_rejects_above_bound(self):
        # m=2: bound = 1.0; U = 1.2.
        ts = _ts((6, 10), (6, 10))
        assert not global_rm_us_schedulable(ts, 2)

    def test_empty_sets(self):
        assert global_edf_gfb_schedulable(TaskSet(), 2)
        assert global_rm_us_schedulable(TaskSet(), 2)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            global_edf_gfb_schedulable(_ts((1, 10)), 0)
        with pytest.raises(ValueError):
            global_rm_us_schedulable(_ts((1, 10)), 0)


class TestGlobalSim:
    """Zero-overhead ``KernelSim`` runs under the global classes."""

    def test_two_light_tasks_two_cores(self):
        ts = _ts((4, 10), (4, 10))
        result = _global_sim(ts, 2, "global-rm", 100).run()
        assert _misses(result) == 0
        assert result.releases == 20

    def test_work_conserving_three_on_two(self):
        # Three 0.4 tasks, two cores: global RM trivially fine.
        ts = _ts((4, 10), (4, 10), (4, 10))
        result = _global_sim(ts, 2, "global-rm", 200).run()
        assert _misses(result) == 0

    def test_dhalls_effect(self):
        """m light short-period tasks + one heavy long task: global RM
        starves the heavy task at utilization barely above 1."""
        m = 3
        tasks = [Task(f"l{i}", wcet=1, period=10) for i in range(m)]
        tasks.append(Task("heavy", wcet=100, period=101))
        ts = TaskSet(tasks).assign_rate_monotonic()
        assert ts.total_utilization < m * 0.45  # far below capacity
        result = _global_sim(ts, m, "global-rm", 1010).run()
        assert _misses(result) > 0

    def test_partitioning_solves_dhall(self):
        """The same set is trivially partitionable — the paper's argument
        for partitioned approaches."""
        from repro.partition.heuristics import partition_first_fit_decreasing

        m = 3
        tasks = [Task(f"l{i}", wcet=1, period=10) for i in range(m)]
        tasks.append(Task("heavy", wcet=100, period=101))
        ts = TaskSet(tasks).assign_rate_monotonic()
        assert partition_first_fit_decreasing(ts, m) is not None

    def test_migrations_counted(self):
        # t2 is preempted on one core and resumes on the other when it
        # frees up first — a genuine migration.
        ts = _ts((2, 5), (6, 20), (6, 20))
        result = _global_sim(ts, 2, "global-edf", 200).run()
        assert _misses(result) == 0
        assert result.migrations > 0

    def test_gedf_not_pfair(self):
        """Three 0.6 jobs per window on two cores: feasible only with
        mid-job parallel-slack use; job-level global EDF misses."""
        ts = _ts((6, 10), (6, 10), (6, 10))
        result = _global_sim(ts, 2, "global-edf", 200).run()
        assert _misses(result) > 0

    def test_preemptions_counted(self):
        ts = _ts((2, 10), (9, 20))
        result = _global_sim(ts, 1, "global-rm", 200).run()
        assert result.preemptions > 0

    def test_g_edf_full_utilization_single_core(self):
        ts = _ts((5, 10), (7, 14))
        result = _global_sim(ts, 1, "global-edf", 700).run()
        assert _misses(result) == 0

    def test_overload_misses(self):
        ts = _ts((8, 10), (8, 10), (8, 10))
        result = _global_sim(ts, 2, "global-edf", 200).run()
        assert _misses(result) > 0

    def test_grm_requires_priorities(self):
        ts = TaskSet([Task("a", wcet=1, period=10)])
        with pytest.raises(ValueError):
            _global_sim(ts, 1, "global-rm", 10)

    def test_invalid_args(self):
        ts = _ts((1, 10))
        with pytest.raises(ValueError):
            _global_sim(ts, 0, "global-rm", 10)
        with pytest.raises(ValueError):
            _global_sim(ts, 1, "magic", 10)
        with pytest.raises(ValueError):
            _global_sim(ts, 1, "global-rm", 0)

    def test_max_response_recorded(self):
        ts = _ts((3, 10))
        result = _global_sim(ts, 1, "global-rm", 100).run()
        assert result.task_stats["t0"].max_response == 3
