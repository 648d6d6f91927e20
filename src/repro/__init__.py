"""repro — semi-partitioned multi-core real-time scheduling.

A production-quality reproduction of

    Yi Zhang, Nan Guan, Wang Yi:
    *Towards the Implementation and Evaluation of Semi-Partitioned
    Multi-Core Scheduling*.  PPES 2011 (OASIcs vol. 18), pp. 42-46.

The library provides:

* the sporadic task model and random task-set generation
  (:mod:`repro.model`);
* exact fixed-priority response-time analysis and utilization bounds
  (:mod:`repro.analysis`);
* partitioned scheduling baselines — FFD, WFD, BFD, NFD
  (:mod:`repro.partition`);
* semi-partitioned scheduling — FP-TS with RTA-based task splitting, plus
  the SPA1/SPA2 utilization-bound variants (:mod:`repro.semipart`);
* a discrete-event simulator of the paper's Linux scheduler architecture,
  with binomial-heap ready queues, red-black-tree sleep queues, split-task
  migration, and injected overheads (:mod:`repro.kernel`,
  :mod:`repro.structures`);
* the overhead model and measurement harness of the paper's Section 3
  (:mod:`repro.overhead`, :mod:`repro.cache`);
* the evaluation harness: acceptance-ratio sweeps, sensitivity ablations,
  simulation-backed validation (:mod:`repro.experiments`).

Quickstart::

    from repro.model import Task, TaskSet, MS
    from repro.semipart import fpts_partition

    ts = TaskSet([
        Task("video", wcet=6 * MS, period=10 * MS),
        Task("audio", wcet=3 * MS, period=5 * MS),
        Task("control", wcet=14 * MS, period=20 * MS),
    ]).assign_rate_monotonic()
    assignment = fpts_partition(ts, n_cores=2)
    print(assignment.describe())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "NS": "model.time",
    "US": "model.time",
    "MS": "model.time",
    "SEC": "model.time",
    "Task": "model.task",
    "TaskSet": "model.taskset",
    "TaskSetGenerator": "model.generator",
    "Assignment": "model.assignment",
    "assignment_schedulable": "analysis.rta",
    "core_schedulable": "analysis.rta",
    "CacheHierarchy": "cache.model",
    "CachePenaltyModel": "cache.model",
    "KernelSim": "kernel.sim",
    "SimulationResult": "kernel.sim",
    "OverheadModel": "overhead.model",
    "inflate_taskset": "overhead.accounting",
    "partition_first_fit_decreasing": "partition.heuristics",
    "partition_worst_fit_decreasing": "partition.heuristics",
    "FptsConfig": "semipart.fpts",
    "fpts_partition": "semipart.fpts",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
