"""SPA1 and SPA2 — utilization-bound semi-partitioned algorithms.

Reconstructed from the published description of the paper's reference [4]
(Guan, Stigge, Yi & Yu, *Fixed-Priority Multiprocessor Scheduling with Liu
and Layland's Utilization Bound*, RTAS 2010).  Both achieve the Liu &
Layland utilization bound ``Theta(n) = n(2^{1/n} - 1)`` on ``m`` processors:

* **SPA1** handles task sets in which every task is *light*
  (``u <= Theta/(1+Theta)``): tasks are laid onto processors in increasing
  RM-priority order (longest period first); when a processor's utilization
  reaches ``Theta`` the current task is split at the utilization boundary,
  the overflowing remainder moving to the next processor.  Split-task
  pieces run at the **top of the local priority order**.
* **SPA2** removes the light-task restriction by *pre-assigning* heavy
  tasks (``u > Theta/(1+Theta)``) to dedicated processors — so heavy tasks
  are never split — and then running the SPA1 filling on the remaining
  tasks and processors.

Acceptance is the constructive outcome: the assignment succeeds whenever
the fill completes within ``m`` processors, which is guaranteed when
``U <= m * Theta(n)`` (and, for SPA1, all tasks are light).  The returned
assignments carry the same body/tail entry metadata as FP-TS, so the exact
RTA and the kernel simulator both accept them.

This module is a faithful *reconstruction* of the algorithmic skeleton; the
original paper's tie-breaking details may differ (documented in DESIGN.md).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.bounds import liu_layland_bound, spa_light_threshold
from repro.analysis.incremental import make_rta_context
from repro.analysis.rta import order_entries
from repro.model.assignment import Assignment, Entry, EntryKind
from repro.model.split import SplitTask, Subtask
from repro.model.task import Task
from repro.model.taskset import TaskSet

_EPS = 1e-12


class _SpaFill:
    """Sequential Theta-utilization filling with splitting at the boundary.

    SPA admission is pure utilization arithmetic (no RTA probes), so the
    per-core analysis contexts serve as the entry containers and
    utilization accumulators — placements go through ``install`` and the
    Theta comparison reads ``context.utilization``, keeping the API
    uniform with the probe-driven partitioners.
    """

    def __init__(self, cores: List[int], theta: float) -> None:
        if not cores:
            raise ValueError("no cores to fill")
        self.cores = cores  # physical core ids, filled in this order
        self.theta = theta
        self.position = 0  # index into self.cores
        self.contexts = {core: make_rta_context() for core in cores}
        self.splits: List[SplitTask] = []
        self.body_rank = 0

    def _current(self) -> Optional[int]:
        if self.position >= len(self.cores):
            return None
        return self.cores[self.position]

    def place(self, task: Task) -> bool:
        """Place ``task``, splitting across fill boundaries as needed."""
        remaining = task.wcet
        pieces: List[Tuple[int, int]] = []
        piece_entries: List[Entry] = []
        cumulative_bound = 0
        while True:
            core = self._current()
            if core is None:
                return False
            spare = self.theta - self.contexts[core].utilization
            remaining_utilization = remaining / task.period
            if remaining_utilization <= spare + _EPS:
                # The rest fits here: tail (or whole task if never split).
                index = len(pieces)
                entry = self._make_entry(
                    task, core, index, remaining, cumulative_bound
                )
                pieces.append((core, remaining))
                piece_entries.append(entry)
                self._commit(task, pieces, piece_entries)
                return True
            # Fill the processor to Theta with a body chunk and move on.
            budget = int(spare * task.period)
            if budget <= 0:
                self.position += 1
                continue
            budget = min(budget, remaining - 1)
            index = len(pieces)
            entry = self._make_entry(
                task, core, index, budget, cumulative_bound, body=True
            )
            pieces.append((core, budget))
            piece_entries.append(entry)
            # Body runs at top local priority: its response bound is its
            # budget plus the budgets of earlier-placed bodies on the core.
            response = budget + sum(
                e.budget
                for e in self.contexts[core].entries
                if e.kind == EntryKind.BODY
            )
            cumulative_bound += response
            remaining -= budget
            self.position += 1

    def _make_entry(
        self,
        task: Task,
        core: int,
        index: int,
        budget: int,
        cumulative_bound: int,
        body: bool = False,
    ) -> Entry:
        if body:
            sub = Subtask(
                task=task,
                index=index,
                core=core,
                budget=budget,
                total_subtasks=index + 2,
            )
            entry = Entry(
                kind=EntryKind.BODY,
                task=task,
                core=core,
                budget=budget,
                subtask=sub,
                deadline=max(1, task.deadline - cumulative_bound),
                jitter=cumulative_bound,
                body_rank=self.body_rank,
            )
            self.body_rank += 1
            return entry
        if index == 0:
            return Entry(
                kind=EntryKind.NORMAL,
                task=task,
                core=core,
                budget=budget,
                deadline=task.deadline,
            )
        sub = Subtask(
            task=task,
            index=index,
            core=core,
            budget=budget,
            total_subtasks=index + 1,
        )
        return Entry(
            kind=EntryKind.TAIL,
            task=task,
            core=core,
            budget=budget,
            subtask=sub,
            deadline=max(1, task.deadline - cumulative_bound),
            jitter=cumulative_bound,
        )

    def _commit(
        self,
        task: Task,
        pieces: List[Tuple[int, int]],
        piece_entries: List[Entry],
    ) -> None:
        if len(pieces) == 1:
            self.contexts[pieces[0][0]].install(piece_entries[0])
            return
        split = SplitTask.build(task, pieces)
        for entry, sub in zip(piece_entries, split.subtasks):
            entry.subtask = sub
            entry.kind = EntryKind.TAIL if sub.is_tail else EntryKind.BODY
            self.contexts[entry.core].install(entry)
        self.splits.append(split)

    def build_assignment(self, n_cores: int) -> Assignment:
        assignment = Assignment(n_cores)
        for core, ctx in self.contexts.items():
            for local_priority, entry in enumerate(order_entries(ctx.entries)):
                entry.local_priority = local_priority
                assignment.add_entry(entry)
        for split in self.splits:
            assignment.register_split(split)
        return assignment


def _require_priorities(taskset: TaskSet) -> None:
    for task in taskset:
        if task.priority is None:
            raise ValueError(
                f"task {task.name} has no priority; call "
                "assign_rate_monotonic() first"
            )


def spa1_partition(taskset: TaskSet, n_cores: int) -> Optional[Assignment]:
    """SPA1: Theta-fill in increasing-priority order; all tasks must be light.

    Returns ``None`` when the light-task precondition fails or the fill
    overflows the platform.
    """
    _require_priorities(taskset)
    if len(taskset) == 0:
        return Assignment(n_cores)
    theta = liu_layland_bound(len(taskset))
    light = spa_light_threshold(len(taskset))
    if any(task.utilization > light + _EPS for task in taskset):
        return None
    # Increasing RM priority = decreasing priority number first.
    order = sorted(
        taskset, key=lambda t: t.priority, reverse=True  # type: ignore[arg-type]
    )
    fill = _SpaFill(list(range(n_cores)), theta)
    for task in order:
        if not fill.place(task):
            return None
    assignment = fill.build_assignment(n_cores)
    assignment.validate()
    return assignment


def spa2_partition(taskset: TaskSet, n_cores: int) -> Optional[Assignment]:
    """SPA2: pre-assign heavy tasks to dedicated processors, SPA1 the rest."""
    _require_priorities(taskset)
    if len(taskset) == 0:
        return Assignment(n_cores)
    theta = liu_layland_bound(len(taskset))
    light = spa_light_threshold(len(taskset))
    heavy = [t for t in taskset if t.utilization > light + _EPS]
    light_tasks = [t for t in taskset if t.utilization <= light + _EPS]
    if len(heavy) > n_cores:
        return None
    assignment_entries: List[Entry] = []
    used_cores: List[int] = []
    # Dedicate one processor per heavy task (decreasing utilization).
    for core, task in enumerate(
        sorted(heavy, key=lambda t: t.utilization, reverse=True)
    ):
        assignment_entries.append(
            Entry(
                kind=EntryKind.NORMAL,
                task=task,
                core=core,
                budget=task.wcet,
                deadline=task.deadline,
            )
        )
        used_cores.append(core)
    remaining_cores = [c for c in range(n_cores) if c not in used_cores]
    if light_tasks and not remaining_cores:
        return None
    if light_tasks:
        order = sorted(
            light_tasks,
            key=lambda t: t.priority,  # type: ignore[arg-type]
            reverse=True,
        )
        fill = _SpaFill(remaining_cores, theta)
        for task in order:
            if not fill.place(task):
                return None
        assignment = fill.build_assignment(n_cores)
    else:
        assignment = Assignment(n_cores)
    for entry in assignment_entries:
        entry.local_priority = len(assignment.cores[entry.core].entries)
        assignment.add_entry(entry)
    assignment.validate()
    return assignment
