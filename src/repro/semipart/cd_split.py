"""C=D semi-partitioned EDF splitting (extension, DESIGN.md §7).

Implements the C=D scheme (Burns, Davis, Wang & Zhang, *Partitioned EDF
scheduling for multiprocessors using a C=D task splitting scheme*, 2012):

* tasks are placed whole, first-fit in decreasing-utilization order, with
  exact uniprocessor EDF admission (processor-demand analysis);
* a task that fits nowhere is split: a core receives a chunk ``c`` posed
  as a **C=D task** — execution ``c``, *deadline also* ``c`` — which EDF
  necessarily serves as soon as it is released, so the chunk completes
  within ``c`` time units and the remainder continues elsewhere with
  deadline reduced by ``c``;
* the maximal chunk each core can absorb is found by binary search over
  ``c`` with the exact demand-bound test;
* the final piece runs as an ordinary EDF task with deadline
  ``D - sum of earlier chunks`` and release jitter equal to that sum.

Soundness details:

* a split piece with release jitter ``J`` is admitted with an *effective
  period* ``T - J``: successive releases of the piece can be as close as
  ``T - J`` apart, and the demand-bound function with the shortened period
  upper-bounds the true jittered demand;
* migration overheads are charged per piece via :class:`CdSplitConfig`
  (same located-charge discipline as FP-TS).

The produced assignments carry per-stage deadlines, so the ``edf``
scheduling class executes them directly:
``build_assignment("C=D", ...)`` records that class on the assignment
(a direct call leaves the FP default; pass ``sched_class="edf"``).

Admission runs on per-core demand-bound contexts from
:mod:`repro.analysis.incremental`: the
:class:`~repro.analysis.incremental.EdfCoreContext` caches resident
triples and restricts the ``C <= D`` pre-check to the candidate
(residents already passed it at their own admission).  The
``incremental-vs-oracle`` pair of ``repro.verify.differential`` checks
every assignment against a rerun on plain
:func:`repro.analysis.edf.edf_schedulable`.  Body ranks
are reserved at commit time: a failed split leaves the splitter as if
the attempt never happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.incremental import make_edf_context
from repro.analysis.rta import order_entries
from repro.model.assignment import Assignment, Entry, EntryKind
from repro.model.split import SplitTask, Subtask
from repro.model.task import Task
from repro.model.taskset import TaskSet


@dataclass(frozen=True)
class CdSplitConfig:
    """Analysis-side charges for C=D splitting (all nanoseconds).

    ``split_cost`` is added to every piece that arrives by migration,
    ``split_cost_out`` to every piece that migrates away (non-final),
    ``min_chunk`` bounds the smallest useful chunk.
    """

    split_cost: int = 0
    split_cost_out: int = 0
    min_chunk: int = 1000

    def __post_init__(self) -> None:
        if self.split_cost < 0 or self.split_cost_out < 0:
            raise ValueError("costs must be non-negative")
        if self.min_chunk < 1:
            raise ValueError("min_chunk must be at least 1 ns")

    @staticmethod
    def from_model(model, cpmd_wss: int = 0, min_chunk: int = 1000):
        from repro.overhead.accounting import (
            migration_in_overhead,
            migration_out_overhead,
        )

        return CdSplitConfig(
            split_cost=migration_in_overhead(model, cpmd_wss),
            split_cost_out=migration_out_overhead(model),
            min_chunk=min_chunk,
        )


def _triple(entry: Entry, config: CdSplitConfig) -> Tuple[int, int, int]:
    """Demand triple (C, T_eff, D) for one entry, charges located."""
    budget = entry.budget
    sub = entry.subtask
    if sub is not None:
        if sub.index >= 1:
            budget += config.split_cost
        if not sub.is_tail:
            budget += config.split_cost_out
    effective_period = entry.period - entry.jitter
    return (budget, max(effective_period, entry.deadline, 1), entry.deadline)


class _CdSplitter:
    def __init__(self, n_cores: int, config: CdSplitConfig) -> None:
        self.config = config
        self.contexts = [
            make_edf_context(
                triple_fn=lambda e: _triple(e, config),
                precheck_cd=True,
            )
            for _ in range(n_cores)
        ]
        self.splits: List[SplitTask] = []
        self.body_rank = 0

    def _spare(self, core: int) -> float:
        return 1.0 - self.contexts[core].utilization

    def try_whole(self, task: Task) -> bool:
        # One probe entry shared across the scan (its admission triple is
        # core-independent); the core is stamped on the admitting hit.
        entry = Entry(
            kind=EntryKind.NORMAL,
            task=task,
            core=0,
            budget=task.wcet,
            deadline=task.deadline,
        )
        pre = self.contexts[0].prepare(entry)
        for core, ctx in enumerate(self.contexts):
            if ctx.probe(entry, pre=pre) is not None:
                entry.core = core
                ctx.commit(entry)
                return True
        return False

    def try_split(self, task: Task) -> bool:
        """Split ``task``; splitter state (contexts, ``body_rank``) moves
        only on success — a failed attempt leaves it untouched."""
        config = self.config
        remaining = task.wcet
        consumed_deadline = 0  # sum of earlier C=D chunks
        pieces: List[Tuple[int, int]] = []
        piece_entries: List[Entry] = []

        candidates = sorted(
            range(len(self.contexts)), key=self._spare, reverse=True
        )
        for core in candidates:
            ctx = self.contexts[core]
            index = len(pieces)
            rank = self.body_rank + index  # provisional; reserved on commit
            # (a) place the remainder as the final ordinary-EDF piece.
            final_deadline = task.deadline - consumed_deadline
            tail_charge = config.split_cost if index >= 1 else 0
            if final_deadline >= remaining + tail_charge:
                sub = Subtask(
                    task=task,
                    index=index,
                    core=core,
                    budget=remaining,
                    total_subtasks=index + 1,
                )
                entry = Entry(
                    kind=EntryKind.TAIL if index >= 1 else EntryKind.NORMAL,
                    task=task,
                    core=core,
                    budget=remaining,
                    subtask=sub if index >= 1 else None,
                    deadline=final_deadline,
                    jitter=consumed_deadline,
                )
                if ctx.probe(entry) is not None:
                    pieces.append((core, remaining))
                    piece_entries.append(entry)
                    self._commit(task, pieces, piece_entries)
                    return True
            # (b) maximal C=D chunk this core can absorb.
            chunk = self._max_chunk(
                task, core, index, rank, remaining, consumed_deadline
            )
            if chunk is None:
                continue
            chunk_deadline = chunk + self._piece_charge(index)
            sub = Subtask(
                task=task,
                index=index,
                core=core,
                budget=chunk,
                total_subtasks=index + 2,
            )
            entry = Entry(
                kind=EntryKind.BODY,
                task=task,
                core=core,
                budget=chunk,
                subtask=sub,
                # C=D on the *total demand*: raw chunk + located charges.
                deadline=chunk_deadline,
                jitter=consumed_deadline,
                body_rank=rank,
            )
            pieces.append((core, chunk))
            piece_entries.append(entry)
            consumed_deadline += chunk_deadline
            remaining -= chunk
        return False

    def _piece_charge(self, index: int) -> int:
        """Overhead charge a body piece at ``index`` carries (out-side
        always; in-side when it arrived by migration)."""
        charge = self.config.split_cost_out
        if index >= 1:
            charge += self.config.split_cost
        return charge

    def _max_chunk(
        self,
        task: Task,
        core: int,
        index: int,
        rank: int,
        remaining: int,
        consumed_deadline: int,
    ) -> Optional[int]:
        """Largest feasible C=D chunk via the context's deduplicated
        binary search — each candidate chunk hits the demand test exactly
        once (the old helper probed the lower bound twice)."""
        config = self.config
        charge = self._piece_charge(index)

        def build(c: int) -> Optional[Entry]:
            # The rest must still be able to meet the residual deadline
            # even with zero interference (reserving the tail's in-charge).
            residual = task.deadline - consumed_deadline - (c + charge)
            if residual < (remaining - c) + config.split_cost:
                return None
            sub = Subtask(
                task=task,
                index=index,
                core=core,
                budget=c,
                total_subtasks=index + 2,
            )
            return Entry(
                kind=EntryKind.BODY,
                task=task,
                core=core,
                budget=c,
                subtask=sub,
                deadline=c + charge,
                jitter=consumed_deadline,
                body_rank=rank,
            )

        best, _verdict = self.contexts[core].probe_budget(
            config.min_chunk, remaining - 1, build
        )
        return best

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
            if entry.kind == EntryKind.BODY:
                self.body_rank += 1
            self.contexts[entry.core].install(entry)
        self.splits.append(split)


def cd_split_partition(
    taskset: TaskSet,
    n_cores: int,
    config: CdSplitConfig = CdSplitConfig(),
) -> Optional[Assignment]:
    """Semi-partitioned EDF with C=D splitting; None if infeasible.

    >>> from repro.model import Task, TaskSet
    >>> ts = TaskSet([
    ...     Task("a", wcet=6, period=10),
    ...     Task("b", wcet=6, period=10),
    ...     Task("c", wcet=6, period=10),
    ... ]).assign_rate_monotonic()
    >>> assignment = cd_split_partition(ts, 2, CdSplitConfig(min_chunk=1))
    >>> assignment is not None and assignment.n_split_tasks == 1
    True
    """
    for task in taskset:
        if task.priority is None:
            raise ValueError(
                f"task {task.name} has no priority; call "
                "assign_rate_monotonic() first (priorities order the "
                "entry bookkeeping even though EDF ignores them)"
            )
    splitter = _CdSplitter(n_cores, config)
    for task in taskset.sorted_by_utilization(descending=True):
        if splitter.try_whole(task):
            continue
        if not splitter.try_split(task):
            return None
    assignment = Assignment(n_cores)
    for ctx in splitter.contexts:
        for local_priority, entry in enumerate(order_entries(ctx.entries)):
            entry.local_priority = local_priority
            assignment.add_entry(entry)
    for split in splitter.splits:
        assignment.register_split(split)
    assignment.validate()
    return assignment
