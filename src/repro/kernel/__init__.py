"""Discrete-event simulator of the paper's semi-partitioned kernel scheduler.

This package is the substitution substrate for the paper's Linux 2.6.32
patch (see DESIGN.md): it reproduces the scheduler architecture of Section 2

* one binomial-heap **ready queue** and one red-black-tree **sleep queue**
  per core;
* **normal tasks** pinned to a core, **split tasks** migrating when their
  per-core budget runs out, returning to the sleep queue of the core that
  hosts their first subtask;
* the four overhead sources of Section 3 (``rls``, ``sch``, ``cnt1``,
  ``cnt2``) injected as non-preemptible kernel execution segments, plus
  cache-related preemption/migration delay charged when a job resumes.

The simulator consumes the same :class:`~repro.model.assignment.Assignment`
objects the analysis produces, so an analysis verdict can be validated by
simulation directly (experiment E6).

Scheduling policies are pluggable (:mod:`repro.kernel.sched_class`): the
simulator delegates every queue decision to a :class:`SchedulingClass`,
with registered classes for semi-partitioned FP (the default), per-core
EDF, restricted-migration semi-partitioning, shared-queue global EDF/RM,
and an EEVDF-style fair class for background work.
``repro.kernel.legacy.LegacyKernelSim`` is a frozen snapshot of the
pre-plugin monolithic simulator kept as the bit-identity reference for
the ``legacy-vs-plugin`` differential pair; it is not imported here, so
import it from :mod:`repro.kernel.legacy` directly.
"""

from repro.kernel.events import EventQueue, Event
from repro.kernel.runtime import Job, RTTask, Stage, build_runtime_tasks
from repro.kernel.sched_class import (
    BACKGROUND_KEY,
    FAIR_KEY_BASE,
    SCHED_CLASSES,
    SchedulingClass,
    make_sched_class,
)
from repro.kernel.sim import KernelSim, SimulationResult, DeadlineMiss
from repro.kernel.global_sim import build_global_assignment

__all__ = [
    "BACKGROUND_KEY",
    "EventQueue",
    "Event",
    "FAIR_KEY_BASE",
    "Job",
    "RTTask",
    "SCHED_CLASSES",
    "SchedulingClass",
    "Stage",
    "build_global_assignment",
    "build_runtime_tasks",
    "make_sched_class",
    "KernelSim",
    "SimulationResult",
    "DeadlineMiss",
]
