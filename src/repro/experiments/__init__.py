"""Evaluation harness reproducing Section 4 of the paper.

* :mod:`repro.experiments.algorithms` — the algorithm registry (FP-TS, FFD,
  WFD, and the extensions) with uniform overhead-aware acceptance tests;
* :mod:`repro.experiments.acceptance` — acceptance-ratio sweeps over
  normalized utilization (the paper's headline comparison, E3);
* :mod:`repro.experiments.sensitivity` — overhead-magnitude ablation (E5);
* :mod:`repro.experiments.validate` — simulation-backed soundness check of
  accepted task sets (E6);
* :mod:`repro.experiments.splitting` — split/migration statistics (E7).
"""

from repro._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "ALGORITHMS": "algorithms",
    "AlgorithmSpec": "algorithms",
    "accept": "algorithms",
    "build_assignment": "algorithms",
    "AcceptanceConfig": "acceptance",
    "AcceptanceResult": "acceptance",
    "run_acceptance": "acceptance",
    "run_overhead_sensitivity": "sensitivity",
    "ValidationReport": "validate",
    "validate_by_simulation": "validate",
    "SplittingStats": "splitting",
    "splitting_statistics": "splitting",
    "BreakdownResult": "breakdown",
    "critical_scaling_factor": "breakdown",
    "run_breakdown": "breakdown",
    "CRITERIA_AXES": "campaign",
    "CampaignRecord": "campaign",
    "CampaignResult": "campaign",
    "run_campaign": "campaign",
    "acceptance_plot": "plot",
    "ascii_plot": "plot",
    "pareto_front": "plot",
    "pareto_table": "plot",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
