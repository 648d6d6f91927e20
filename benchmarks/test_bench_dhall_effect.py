"""E9 (extension) — Dhall's effect by simulation.

Demonstrates, with the simulators, why the paper's community moved to
partitioning: on ``m`` cores, ``m`` light short-period tasks plus one heavy
long-period task (total utilization barely above 1, i.e. ~m/3 of capacity)
make *global* RM miss deadlines, while first-fit partitioning schedules the
same set with room to spare — and the overhead-aware kernel simulation
confirms it.
"""

from __future__ import annotations

from repro.kernel import KernelSim, build_global_assignment
from repro.model import Task, TaskSet
from repro.model.time import MS
from repro.overhead import OverheadModel
from repro.partition import partition_first_fit_decreasing


def _dhall_taskset(m: int) -> TaskSet:
    tasks = [
        Task(f"light{i}", wcet=1 * MS, period=10 * MS) for i in range(m)
    ]
    tasks.append(Task("heavy", wcet=100 * MS, period=101 * MS))
    return TaskSet(tasks).assign_rate_monotonic()


def _run(m: int):
    taskset = _dhall_taskset(m)
    horizon = 10 * 101 * MS
    g_rm = KernelSim(
        build_global_assignment(taskset, m),
        OverheadModel.zero(),
        duration=horizon,
        sched_class="global-rm",
    ).run()
    assignment = partition_first_fit_decreasing(taskset, m)
    partitioned = None
    if assignment is not None:
        partitioned = KernelSim(
            assignment,
            OverheadModel.paper_core_i7(tasks_per_core=2),
            duration=horizon,
        ).run()
    return taskset, g_rm, assignment, partitioned


def _hard_misses(result) -> int:
    """Overrun and late misses (jobs unfinished at the horizon excluded)."""
    return sum(1 for miss in result.misses if miss.kind in ("overrun", "late"))


def test_dhall_effect(benchmark, save_result):
    taskset, g_rm, assignment, partitioned = benchmark.pedantic(
        lambda: _run(4), rounds=1, iterations=1
    )
    g_rm_misses = _hard_misses(g_rm)

    lines = [
        f"m = 4 cores, U = {taskset.total_utilization:.3f} "
        f"({taskset.total_utilization / 4:.1%} of capacity)",
        "",
        f"global RM simulation:      {g_rm_misses} deadline misses, "
        f"{g_rm.migrations} migrations",
        f"partitioned RM (FFD):      "
        f"{'accepted' if assignment else 'REJECTED'} by exact RTA",
    ]
    if partitioned is not None:
        lines.append(
            f"partitioned RM simulation: {partitioned.miss_count} deadline "
            f"misses (with Core-i7 overheads)"
        )
    save_result("E9_dhall", "Dhall's effect: global vs partitioned RM", "\n".join(lines))

    assert g_rm_misses > 0, "global RM must exhibit Dhall's effect"
    assert assignment is not None, "FFD must partition the Dhall set"
    assert partitioned is not None and partitioned.miss_count == 0
