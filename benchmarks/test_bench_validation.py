"""E6 — simulation-backed soundness of the overhead-aware analysis.

The implicit claim behind the paper's methodology: task sets accepted by
the overhead-aware schedulability analysis really do meet all deadlines
when executed by the kernel scheduler with those overheads.  The bench
runs the validation campaign (analysis -> simulate accepted assignment
with injected overheads and raw WCETs -> count misses + check trace
invariants) and requires zero misses.  Each assignment runs under the
scheduling class it records, so the EDF side (C=D, P-EDF) is simulated
under EDF dispatch.  PDMS is recorded as an expected failure: at these
parameters one accepted set misses deadlines (an unsplit task's job
overruns into its next release), while the same sets meet every
deadline at zero overheads.
"""

from __future__ import annotations

import pytest

from repro.experiments import validate_by_simulation


def _campaign(algorithm: str):
    return validate_by_simulation(
        algorithm=algorithm,
        n_cores=4,
        n_tasks=8,
        normalized_utilization=0.85,
        sets=8,
        seed=2011,
    )


def _run(benchmark, save_result, algorithm: str, exp_id: str):
    report = benchmark.pedantic(
        lambda: _campaign(algorithm), rounds=1, iterations=1
    )
    body = report.as_table()
    if report.details:
        body += "\n" + "\n".join(report.details)
    save_result(exp_id, f"analysis-vs-simulation ({algorithm})", body)
    assert report.sets_simulated > 0
    assert report.sound, report.details


def test_validation_fpts(benchmark, save_result):
    _run(benchmark, save_result, "FP-TS", "E6_validation_fpts")


def test_validation_ffd(benchmark, save_result):
    _run(benchmark, save_result, "FFD", "E6_validation_ffd")


def test_validation_cd(benchmark, save_result):
    _run(benchmark, save_result, "C=D", "E6_validation_cd")


def test_validation_pedf(benchmark, save_result):
    _run(benchmark, save_result, "P-EDF", "E6_validation_pedf")


@pytest.mark.xfail(
    strict=True,
    reason="PDMS: an accepted set misses deadlines under paper overheads",
)
def test_validation_pdms(benchmark, save_result):
    _run(benchmark, save_result, "PDMS", "E6_validation_pdms")
