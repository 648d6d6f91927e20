"""Schedulability analysis.

Uniprocessor fixed-priority response-time analysis (with release jitter, the
form needed for split-task tails), classic utilization bounds, the
overhead-aware variants used for the paper's evaluation, and the
struct-of-arrays batch kernels (:mod:`repro.analysis.batch`) that run the
same exact tests over whole task-set populations in lock-step.
"""

from repro._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "CoreAnalysis": "rta",
    "EntryResult": "rta",
    "assignment_schedulable": "rta",
    "core_schedulable": "rta",
    "entry_response_time": "rta",
    "order_entries": "rta",
    "response_time": "rta",
    "BATCH_STATS": "batch",
    "BatchStats": "batch",
    "PopulationError": "batch",
    "TaskSetPopulation": "batch",
    "batch_partition_accept_multi": "batch",
    "batch_rta_responses": "batch",
    "STATS": "incremental",
    "AnalysisStats": "incremental",
    "CoreAnalysisContext": "incremental",
    "EdfCoreContext": "incremental",
    "make_edf_context": "incremental",
    "make_rta_context": "incremental",
    "liu_layland_bound": "bounds",
    "liu_layland_schedulable": "bounds",
    "hyperbolic_schedulable": "bounds",
    "spa_light_threshold": "bounds",
    "demand_bound": "edf",
    "edf_schedulable": "edf",
    "edf_utilization_schedulable": "edf",
    "global_edf_gfb_schedulable": "global_bounds",
    "global_rm_us_schedulable": "global_bounds",
    "assignment_schedulable_with_resources": "blocking",
    "core_schedulable_with_resources": "blocking",
    "qpa_schedulable": "qpa",
    "opa_admission": "opa",
    "opa_order": "opa",
    "opa_schedulable": "opa",
    "fp_schedulable_oracle": "oracle",
    "SensitivityReport": "slack",
    "sensitivity_report": "slack",
    "wcet_margin": "slack",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
