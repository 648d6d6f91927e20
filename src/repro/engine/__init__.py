"""Parallel, cache-aware, fault-tolerant experiment engine.

The paper's evaluation is a large factorial sweep: thousands of generated
task sets x algorithms x overhead models.  This package turns that sweep
into *work units* — self-describing, independently executable slices of an
experiment — and executes them either serially or over a process pool,
with an optional content-addressed on-disk result cache:

* :mod:`repro.engine.units` — the work-unit dataclasses
  (:class:`AcceptanceUnit`, :class:`SplittingUnit`, plus the
  engine-robustness :class:`ChaosUnit`), the process-pool-safe
  :func:`execute_unit` entry point, and the stable config fingerprint the
  cache keys on;
* :mod:`repro.engine.cache` — :class:`ResultCache`, a content-addressed
  JSON store under ``.repro-cache/`` (or any directory); corrupt entries
  are quarantined and recomputed, never fatal;
* :mod:`repro.engine.executor` — :class:`ExperimentEngine`, which resolves
  cache hits, fans the misses out over ``jobs`` worker processes, and
  merges everything back **in unit order**, so a parallel run is
  bit-identical to a serial run.  Robustness options: per-unit wall-clock
  timeouts, retries with exponential backoff, automatic pool rebuild and
  serial fallback on :class:`~concurrent.futures.process.BrokenProcessPool`,
  a JSONL checkpoint journal with ``resume``, and a :class:`UnitFailure`
  manifest instead of an exception when a unit exhausts its attempts.

Determinism contract: every unit carries its own seed (derived from the
experiment seed and the unit's position, e.g. ``seed + 7919 *
point_index``), so results do not depend on which process computed them,
in which order they finished, or how often they were retried or resumed.
"""

from repro._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "CACHE_SCHEMA_VERSION": "units",
    "AcceptanceUnit": "units",
    "AdmissionUnit": "units",
    "ChaosUnit": "units",
    "CriteriaUnit": "units",
    "ProfileUnit": "units",
    "SplittingUnit": "units",
    "VerifyUnit": "units",
    "WorkloadUnit": "units",
    "execute_admission": "units",
    "EngineStats": "executor",
    "ExperimentEngine": "executor",
    "ResultCache": "cache",
    "UnitFailure": "executor",
    "execute_unit": "units",
    "unit_fingerprint": "units",
    "unit_spec": "units",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
