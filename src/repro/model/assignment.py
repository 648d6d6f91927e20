"""Task-to-core assignment produced by (semi-)partitioning algorithms.

An :class:`Assignment` is the contract between the partitioning algorithms
(`repro.partition`, `repro.semipart`), the schedulability analysis
(`repro.analysis`) and the kernel simulator (`repro.kernel`):

* every core has an ordered list of :class:`Entry` objects (highest local
  priority first);
* an entry is either a whole task (``NORMAL``) or one subtask of a split
  task (``BODY`` / ``TAIL``);
* body subtasks occupy the top local priorities — the rule the FP-TS family
  uses so a body's response time is unaffected by anything assigned later;
* tail and normal entries are ordered by the task's global (RM) priority.

Entries also carry the analysis-facing parameters (synthetic deadline and
release jitter for subtasks) so the simulator and the analysis consume the
exact same object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional

from repro.model.task import Task
from repro.model.split import SplitTask, Subtask


class EntryKind(Enum):
    NORMAL = "normal"
    BODY = "body"
    TAIL = "tail"


@dataclass
class Entry:
    """One schedulable entity resident on a core."""

    kind: EntryKind
    task: Task
    core: int
    budget: int
    subtask: Optional[Subtask] = None
    # Analysis-facing parameters (nanoseconds):
    deadline: int = 0  # local (possibly synthetic) relative deadline
    jitter: int = 0  # release jitter relative to the job's nominal release
    local_priority: int = 0  # 0 = highest on this core
    body_rank: int = 0  # creation order among body subtasks (earlier = higher)

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError(f"entry for {self.task.name}: budget must be positive")
        if self.deadline == 0:
            self.deadline = self.task.deadline
        if self.kind == EntryKind.NORMAL and self.budget != self.task.wcet:
            raise ValueError(
                f"normal entry for {self.task.name} must carry the full WCET"
            )
        if self.kind != EntryKind.NORMAL and self.subtask is None:
            raise ValueError("body/tail entries need their Subtask")

    @property
    def name(self) -> str:
        if self.subtask is not None:
            return self.subtask.name
        return self.task.name

    @property
    def period(self) -> int:
        return self.task.period

    @property
    def utilization(self) -> float:
        return self.budget / self.task.period

    def __str__(self) -> str:
        return (
            f"{self.name}@core{self.core}"
            f"[{self.kind.value}, C={self.budget}, D={self.deadline}, "
            f"J={self.jitter}, p={self.local_priority}]"
        )


@dataclass
class CoreAssignment:
    """The set of entries resident on one core, in local priority order."""

    core: int
    entries: List[Entry] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        return sum(entry.utilization for entry in self.entries)

    def sorted_entries(self) -> List[Entry]:
        return sorted(self.entries, key=lambda e: e.local_priority)

    def add(self, entry: Entry) -> None:
        if entry.core != self.core:
            raise ValueError(
                f"entry for core {entry.core} added to core {self.core}"
            )
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)


class Assignment:
    """A complete mapping of a task set onto ``m`` cores.

    ``raw_wcet`` maps a task name to its WCET *before* overhead
    inflation: the execution demand of its jobs.  An overhead-aware
    analysis places inflated tasks (entry budgets reserve room for the
    kernel's own work), while the simulator injects that kernel work
    explicitly, so it runs each job for the raw WCET.
    :func:`repro.experiments.algorithms.build_assignment` fills it in; a
    task missing from it demands its full entry budgets.

    ``sched_class`` names the scheduling class
    (:data:`repro.kernel.sched_class.SCHED_CLASSES`) the assignment is
    correct under: the simulator dispatches it that way unless told
    otherwise.  ``build_assignment`` stamps the algorithm's class; an
    assignment built any other way runs under FP.
    """

    def __init__(self, n_cores: int) -> None:
        if n_cores <= 0:
            raise ValueError("need at least one core")
        self.cores: List[CoreAssignment] = [
            CoreAssignment(core=i) for i in range(n_cores)
        ]
        self.split_tasks: Dict[str, SplitTask] = {}
        self.raw_wcet: Dict[str, int] = {}
        self.sched_class = "fp"

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def add_entry(self, entry: Entry) -> None:
        self.cores[entry.core].add(entry)

    def register_split(self, split: SplitTask) -> None:
        self.split_tasks[split.task.name] = split

    def entries(self) -> Iterator[Entry]:
        for core in self.cores:
            yield from core.entries

    def entries_for_task(self, name: str) -> List[Entry]:
        return [entry for entry in self.entries() if entry.task.name == name]

    def core_of(self, name: str) -> Optional[int]:
        """Core of a normal task; None for split tasks (use split_tasks)."""
        if name in self.split_tasks:
            return None
        for entry in self.entries():
            if entry.task.name == name:
                return entry.core
        raise KeyError(f"task {name!r} not in assignment")

    @property
    def tasks(self) -> List[Task]:
        """All distinct tasks in the assignment."""
        seen: Dict[str, Task] = {}
        for entry in self.entries():
            seen.setdefault(entry.task.name, entry.task)
        return list(seen.values())

    @property
    def total_utilization(self) -> float:
        return sum(core.utilization for core in self.cores)

    @property
    def n_split_tasks(self) -> int:
        return len(self.split_tasks)

    @property
    def n_migrations_per_hyperperiod(self) -> Dict[str, int]:
        """Migrations per job for each split task."""
        return {
            name: split.migration_count_per_job
            for name, split in self.split_tasks.items()
        }

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural consistency; raises ValueError on failure."""
        for core in self.cores:
            priorities = [entry.local_priority for entry in core.entries]
            if len(set(priorities)) != len(priorities):
                raise ValueError(
                    f"core {core.core}: duplicate local priorities {priorities}"
                )
        # Every split task's subtasks must appear exactly once, on the right
        # cores, with matching budgets.
        for name, split in self.split_tasks.items():
            entries = self.entries_for_task(name)
            if len(entries) != len(split.subtasks):
                raise ValueError(
                    f"split task {name}: {len(entries)} entries for "
                    f"{len(split.subtasks)} subtasks"
                )
            by_index = {entry.subtask.index: entry for entry in entries}
            for sub in split.subtasks:
                entry = by_index.get(sub.index)
                if entry is None:
                    raise ValueError(f"split task {name}: subtask {sub.index} missing")
                if entry.core != sub.core or entry.budget != sub.budget:
                    raise ValueError(
                        f"split task {name}: subtask {sub.index} entry mismatch"
                    )
        # Non-split tasks appear exactly once.
        counts: Dict[str, int] = {}
        for entry in self.entries():
            counts[entry.task.name] = counts.get(entry.task.name, 0) + 1
        for name, count in counts.items():
            if name not in self.split_tasks and count != 1:
                raise ValueError(f"task {name} assigned {count} times")

    def describe(self) -> str:
        lines = []
        for core in self.cores:
            lines.append(
                f"core {core.core} (U={core.utilization:.3f}):"
            )
            for entry in core.sorted_entries():
                lines.append(f"  {entry}")
        if self.split_tasks:
            lines.append("split tasks:")
            for split in self.split_tasks.values():
                lines.append(f"  {split}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Assignment(m={self.n_cores}, tasks={len(self.tasks)}, "
            f"splits={self.n_split_tasks})"
        )
