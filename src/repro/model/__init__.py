"""Real-time task model.

Tasks are sporadic/periodic with worst-case execution time (WCET), period,
and constrained deadline.  All times are **integer nanoseconds** throughout
the library (model, analysis and simulator), which keeps discrete-event
simulation exact and makes the paper's microsecond-scale overheads directly
representable.
"""

from repro._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "NS": "time",
    "US": "time",
    "MS": "time",
    "SEC": "time",
    "ns_to_us": "time",
    "ns_to_ms": "time",
    "format_ns": "time",
    "Task": "task",
    "rm_sort_key": "task",
    "dm_sort_key": "task",
    "TaskSet": "taskset",
    "Subtask": "split",
    "SplitTask": "split",
    "Assignment": "assignment",
    "CoreAssignment": "assignment",
    "Entry": "assignment",
    "EntryKind": "assignment",
    "TaskSetGenerator": "generator",
    "uunifast": "generator",
    "uunifast_discard": "generator",
    "log_uniform_periods": "generator",
    "CriticalSection": "resources",
    "ResourceModel": "resources",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
