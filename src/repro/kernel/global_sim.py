"""Idealised global multiprocessor scheduling (extension, DESIGN.md §7).

The paper's introduction contrasts partitioning with "the global approach
[where] each task can execute on any available processor at run time".
That baseline is :class:`~repro.kernel.sim.KernelSim` running the
``global-rm`` / ``global-edf`` scheduling classes
(:mod:`repro.kernel.sched_class`): a single system-wide ready queue,
``m`` identical cores and full migration.  With
``OverheadModel.zero()`` it is the *idealised* comparison — e.g. Dhall's
effect, where global RM misses deadlines at low utilization that
partitioned/semi-partitioned scheduling handles trivially — and any
other overhead model gives an overhead-aware global run.

:func:`build_global_assignment` packs a task set into the static
assignment shape those classes expect.
"""

from __future__ import annotations

from typing import Iterable

from repro.model.assignment import Assignment, Entry, EntryKind
from repro.model.task import Task


def build_global_assignment(
    tasks: Iterable[Task], n_cores: int
) -> Assignment:
    """Pack every task as a NORMAL entry on core 0 of an ``n_cores``
    assignment — the shape the global scheduling classes expect (they
    share one ready heap; per-core placement is a runtime decision, so
    the static assignment only carries the task parameters).

    >>> from repro.kernel.sim import KernelSim
    >>> from repro.model.task import Task
    >>> from repro.model.taskset import TaskSet
    >>> from repro.overhead.model import OverheadModel
    >>> ts = TaskSet([Task("a", wcet=4, period=10),
    ...               Task("b", wcet=4, period=10)]).assign_rate_monotonic()
    >>> sim = KernelSim(build_global_assignment(ts, 2), OverheadModel.zero(),
    ...                 100, sched_class="global-rm")
    >>> sim.run().misses
    []
    """
    assignment = Assignment(n_cores)
    for rank, task in enumerate(sorted(tasks, key=lambda t: t.name)):
        assignment.add_entry(
            Entry(
                kind=EntryKind.NORMAL,
                task=task,
                core=0,
                budget=task.wcet,
                deadline=task.deadline,
                local_priority=rank,
            )
        )
    return assignment
