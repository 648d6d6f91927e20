"""Differential cross-checks: two independent computations of the same
quantity must agree.  One dedicated test per pair."""

from __future__ import annotations

from repro.model.assignment import Assignment
from repro.verify import (
    DIFFERENTIAL_PAIRS,
    assignment_to_canonical,
    batch_vs_scratch,
    empty_plan_vs_no_plan,
    freq1_vs_unscaled,
    incremental_vs_oracle,
    run_differential_suite,
    serial_vs_parallel,
    shared_vs_separate,
    sim_vs_oracle,
    tick_vs_event,
)
from repro.verify.differential import _diff_canonical


def test_sim_vs_oracle():
    """Response-time analysis and the event simulator agree on single-core
    FP schedulability (implicit-deadline synchronous-release task sets)."""
    assert sim_vs_oracle(trials=12, seed=101) == []


def test_serial_vs_parallel():
    """The experiment engine returns bit-identical payloads serially and
    over a process pool."""
    assert serial_vs_parallel(seed=5, jobs=2) == []


def test_empty_plan_vs_no_plan():
    """An empty FaultPlan is observationally identical to no plan, at
    full-result granularity (trace, events, counters, stats)."""
    assert empty_plan_vs_no_plan(seed=2) == []


def test_tick_vs_event():
    """With periods quantized to the tick, tick-driven release scanning
    reproduces the event-driven schedule exactly."""
    assert tick_vs_event(seed=4) == []


def test_incremental_vs_oracle():
    """Every partitioner builds the bit-identical assignment on the
    incremental contexts and on plain ``rta.py`` / ``edf.py``."""
    assert incremental_vs_oracle(trials=10, seed=3) == []


def test_diff_canonical_reports_accepted_vs_rejected():
    """An accepted and a rejected canonical assignment have different
    keys; the diff must report that, in either order, not raise."""
    accepted = assignment_to_canonical(Assignment(2))
    rejected = assignment_to_canonical(None)
    for a, b in ((accepted, rejected), (rejected, accepted)):
        diffs = _diff_canonical(a, b, "left", "right")
        assert diffs
        assert any(d.startswith("accepted:") for d in diffs)
        assert any("n_cores: only in" in d for d in diffs)


def test_batch_vs_scratch():
    """The struct-of-arrays batch kernels (and FP-TS read off their FFD
    row) return bit-identical accept/reject vectors and per-entry
    response times to the scalar pipeline."""
    assert batch_vs_scratch(trials=8, seed=9) == []


def test_shared_vs_separate():
    """One first-fit pass for FFD and FP-TS returns the assignments and
    verdicts of separate runs, in both algorithm orders."""
    assert shared_vs_separate(trials=10, seed=3) == []


def test_freq1_vs_unscaled():
    """Frequency 1.0 (in every spelling) is observationally identical to
    not passing frequencies at all — full results, energy ledgers, and a
    balanced ledger on both sides."""
    assert freq1_vs_unscaled(trials=6, seed=21) == []


def test_suite_covers_all_pairs():
    report = run_differential_suite(seed=1, trials=5, jobs=2)
    assert len(DIFFERENTIAL_PAIRS) == 11
    assert set(report) == set(DIFFERENTIAL_PAIRS)
    assert all(diffs == [] for diffs in report.values())
