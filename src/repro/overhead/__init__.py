"""Run-time overhead models, measurement, and analysis-side accounting.

Reproduces Section 3 of the paper:

* :mod:`repro.overhead.model` — the four overhead sources (``rls``, ``sch``,
  ``cnt1``, ``cnt2``) plus queue-operation and cache-related costs, with
  constructors calibrated to the paper's measured microsecond values;
* :mod:`repro.overhead.measure` — micro-benchmarks that re-measure queue
  operation costs on *our* binomial heap / red-black tree (the paper's
  methodology applied to this implementation);
* :mod:`repro.overhead.accounting` — WCET inflation used to integrate
  overheads into schedulability analysis (Section 4 of the paper).
"""

from repro._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "OverheadModel": "model",
    "PAPER_QUEUE_POINTS": "model",
    "arrival_overhead": "accounting",
    "completion_overhead": "accounting",
    "inflate_taskset": "accounting",
    "migration_in_overhead": "accounting",
    "migration_out_overhead": "accounting",
    "per_job_overhead": "accounting",
    "per_migration_overhead": "accounting",
    "QueueMeasurement": "measure",
    "measure_queue_operations": "measure",
    "measure_scheduler_functions": "measure",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
