"""Task-set serialisation (JSON).

The interchange format is a JSON object::

    {
      "tasks": [
        {"name": "video", "wcet_us": 6000, "period_us": 10000,
         "deadline_us": 10000, "wss_kib": 64},
        ...
      ]
    }

Times are microseconds (the natural unit at this scale), working sets KiB;
both are converted to the library's canonical nanoseconds/bytes on load.
``deadline_us`` and ``wss_kib`` are optional (defaults: implicit deadline,
64 KiB).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import US


def taskset_to_dict(taskset: TaskSet) -> dict:
    return {
        "tasks": [
            {
                "name": task.name,
                "wcet_us": task.wcet / US,
                "period_us": task.period / US,
                "deadline_us": task.deadline / US,
                "wss_kib": task.wss / 1024,
            }
            for task in taskset
        ]
    }


def taskset_from_dict(data: dict) -> TaskSet:
    """Parse the task-set JSON schema; malformed input is a ValueError."""
    if not isinstance(data, dict) or not isinstance(data.get("tasks"), list):
        raise ValueError("task-set JSON must have a top-level 'tasks' list")
    tasks = []
    for index, spec in enumerate(data["tasks"]):
        if not isinstance(spec, dict):
            raise ValueError(f"task #{index}: expected an object")
        try:
            name = spec.get("name", f"t{index:03d}")
            wcet = int(round(spec["wcet_us"] * US))
            period = int(round(spec["period_us"] * US))
            deadline = int(round(spec.get("deadline_us", 0) * US))
            wss = int(round(spec.get("wss_kib", 64) * 1024))
        except KeyError as missing:
            raise ValueError(
                f"task #{index}: missing required field {missing}"
            ) from None
        except (TypeError, OverflowError):
            raise ValueError(
                f"task #{index}: times must be finite numbers"
            ) from None
        tasks.append(
            Task(
                name=name,
                wcet=wcet,
                period=period,
                deadline=deadline,
                wss=wss,
            )
        )
    return TaskSet(tasks)


def save_taskset(taskset: TaskSet, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(taskset_to_dict(taskset), indent=2))


def load_taskset(path: Union[str, Path]) -> TaskSet:
    return taskset_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Assignment serialisation
# ----------------------------------------------------------------------
#
# Schema: ``{"n_cores": m, "entries": [ {...}, ... ]}`` with one record per
# entry; split tasks are reconstructed from their subtask records.  Times
# stay in nanoseconds here (assignments are machine artefacts, not
# hand-written files).


def assignment_to_dict(assignment) -> dict:
    from repro.model.assignment import Assignment  # noqa: F401 (doc aid)

    entries = []
    for entry in assignment.entries():
        record = {
            "task": {
                "name": entry.task.name,
                "wcet_ns": entry.task.wcet,
                "period_ns": entry.task.period,
                "deadline_ns": entry.task.deadline,
                "priority": entry.task.priority,
                "wss": entry.task.wss,
            },
            "kind": entry.kind.value,
            "core": entry.core,
            "budget_ns": entry.budget,
            "deadline_ns": entry.deadline,
            "jitter_ns": entry.jitter,
            "local_priority": entry.local_priority,
            "body_rank": entry.body_rank,
        }
        if entry.subtask is not None:
            record["subtask_index"] = entry.subtask.index
            record["total_subtasks"] = entry.subtask.total_subtasks
        entries.append(record)
    return {"n_cores": assignment.n_cores, "entries": entries}


def assignment_from_dict(data: dict):
    from repro.model.assignment import Assignment, Entry, EntryKind
    from repro.model.split import SplitTask, Subtask

    assignment = Assignment(data["n_cores"])
    tasks: dict = {}
    split_pieces: dict = {}
    for record in data["entries"]:
        spec = record["task"]
        task = tasks.get(spec["name"])
        if task is None:
            task = Task(
                name=spec["name"],
                wcet=spec["wcet_ns"],
                period=spec["period_ns"],
                deadline=spec["deadline_ns"],
                priority=spec.get("priority"),
                wss=spec.get("wss", 64 * 1024),
            )
            tasks[spec["name"]] = task
        subtask = None
        if "subtask_index" in record:
            subtask = Subtask(
                task=task,
                index=record["subtask_index"],
                core=record["core"],
                budget=record["budget_ns"],
                total_subtasks=record["total_subtasks"],
            )
            split_pieces.setdefault(task.name, []).append(subtask)
        entry = Entry(
            kind=EntryKind(record["kind"]),
            task=task,
            core=record["core"],
            budget=record["budget_ns"],
            subtask=subtask,
            deadline=record["deadline_ns"],
            jitter=record["jitter_ns"],
            local_priority=record["local_priority"],
            body_rank=record.get("body_rank", 0),
        )
        assignment.add_entry(entry)
    for name, pieces in split_pieces.items():
        pieces.sort(key=lambda s: s.index)
        split = SplitTask.build(
            tasks[name], [(s.core, s.budget) for s in pieces]
        )
        assignment.register_split(split)
    assignment.validate()
    return assignment


def save_assignment(assignment, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(assignment_to_dict(assignment), indent=2))


def load_assignment(path: Union[str, Path]):
    return assignment_from_dict(json.loads(Path(path).read_text()))
