"""Tests for the evaluation harness (algorithms registry, acceptance sweep,
sensitivity, splitting statistics)."""

from __future__ import annotations

import pytest

from repro.experiments.acceptance import (
    AcceptanceConfig,
    default_utilization_grid,
    run_acceptance,
)
from repro.experiments.algorithms import ALGORITHMS, accept, build_assignment
from repro.experiments.sensitivity import run_overhead_sensitivity
from repro.experiments.splitting import splitting_statistics, splitting_table
from repro.model.generator import TaskSetGenerator
from repro.overhead.model import OverheadModel


class TestRegistry:
    def test_paper_algorithms_present(self):
        for name in ["FP-TS", "FFD", "WFD"]:
            assert name in ALGORITHMS

    def test_extensions_present(self):
        for name in ["BFD", "NFD", "SPA1", "SPA2"]:
            assert name in ALGORITHMS

    def test_kinds(self):
        assert ALGORITHMS["FP-TS"].kind == "semi-partitioned"
        assert ALGORITHMS["FFD"].kind == "partitioned"

    def test_unknown_algorithm_raises(self):
        ts = TaskSetGenerator(n_tasks=4, seed=0).generate(1.0)
        with pytest.raises(KeyError):
            build_assignment("GHOST", ts, 2)

    def test_accept_easy_set(self):
        ts = TaskSetGenerator(n_tasks=8, seed=1).generate(1.0)
        for name in ["FP-TS", "FFD", "WFD", "BFD"]:
            assert accept(name, ts, 4)

    def test_overheads_make_acceptance_harder(self):
        """Acceptance with overheads is a subset of overhead-free."""
        generator = TaskSetGenerator(n_tasks=12, seed=3)
        model = OverheadModel.paper_core_i7(3).scaled(50)
        flips = 0
        for _ in range(30):
            ts = generator.generate(3.6)
            with_overhead = accept("FFD", ts, 4, model)
            without = accept("FFD", ts, 4)
            if with_overhead:
                assert without
            if without and not with_overhead:
                flips += 1
        # With a 50x-inflated model some sets must actually flip.
        assert flips > 0


class TestNanHonestAggregates:
    """Failed grid points (NaN ratios) must not poison the sweep-level
    aggregates or silently count as rejections."""

    def _result_with_gap(self):
        import math

        from repro.experiments.acceptance import AcceptanceResult

        config = AcceptanceConfig(
            n_cores=2,
            n_tasks=6,
            utilizations=[0.6, 0.8, 1.0],
            algorithms=("FFD",),
        )
        return AcceptanceResult(
            config=config,
            utilizations=[0.6, 0.8, 1.0],
            ratios={"FFD": [1.0, math.nan, 0.5]},
        )

    def test_weighted_acceptance_skips_gap(self):
        result = self._result_with_gap()
        assert result.weighted_acceptance("FFD") == pytest.approx(
            (1.0 + 0.5) / 2
        )

    def test_weighted_schedulability_skips_gap(self):
        result = self._result_with_gap()
        expected = (0.6 * 1.0 + 1.0 * 0.5) / (0.6 + 1.0)
        assert result.weighted_schedulability("FFD") == pytest.approx(
            expected
        )

    def test_gap_reported_as_failed_utilization(self):
        result = self._result_with_gap()
        assert result.failed_utilizations == [0.8]


class TestAcceptanceSweep:
    def test_default_grid(self):
        grid = default_utilization_grid()
        assert grid[0] == 0.6
        assert grid[-1] == 1.0
        assert len(grid) == 17

    def test_small_sweep_structure(self):
        config = AcceptanceConfig(
            n_cores=2,
            n_tasks=6,
            sets_per_point=10,
            utilizations=[0.5, 0.9],
            algorithms=("FP-TS", "FFD"),
        )
        result = run_acceptance(config)
        assert set(result.ratios) == {"FP-TS", "FFD"}
        assert len(result.ratios["FFD"]) == 2
        assert all(0.0 <= r <= 1.0 for r in result.ratios["FFD"])

    def test_low_utilization_all_accepted(self):
        config = AcceptanceConfig(
            n_cores=4,
            n_tasks=8,
            sets_per_point=15,
            utilizations=[0.4],
            algorithms=("FP-TS", "FFD", "WFD"),
        )
        result = run_acceptance(config)
        for name in ("FP-TS", "FFD", "WFD"):
            assert result.ratio_at(name, 0.4) == 1.0

    def test_fpts_dominates_ffd(self):
        """The paper's headline: FP-TS acceptance >= FFD at every point."""
        config = AcceptanceConfig(
            n_cores=4,
            n_tasks=12,
            sets_per_point=25,
            utilizations=[0.8, 0.9, 0.95],
            overheads=OverheadModel.paper_core_i7(3),
            algorithms=("FP-TS", "FFD", "WFD"),
        )
        result = run_acceptance(config)
        for i in range(3):
            assert result.ratios["FP-TS"][i] >= result.ratios["FFD"][i]

    def test_deterministic(self):
        config = AcceptanceConfig(
            n_cores=2,
            n_tasks=6,
            sets_per_point=10,
            utilizations=[0.85],
            algorithms=("FFD",),
        )
        a = run_acceptance(config)
        b = run_acceptance(config)
        assert a.ratios == b.ratios

    def test_table_rendering(self):
        config = AcceptanceConfig(
            n_cores=2,
            n_tasks=4,
            sets_per_point=5,
            utilizations=[0.7],
            algorithms=("FFD",),
        )
        result = run_acceptance(config)
        table = result.as_table()
        assert "U/m" in table and "FFD" in table

    def test_breakdown_utilization(self):
        config = AcceptanceConfig(
            n_cores=2,
            n_tasks=8,
            sets_per_point=10,
            utilizations=[0.5, 0.99],
            algorithms=("WFD",),
        )
        result = run_acceptance(config)
        breakdown = result.breakdown_utilization("WFD")
        assert breakdown in (None, 0.99)


@pytest.mark.parametrize("n_cores", [2, 4])
@pytest.mark.parametrize(
    "algorithms, overheads",
    [
        (("FP-TS", "FFD", "WFD"), "paper"),
        (("FFD", "WFD", "BFD", "NFD", "P-EDF"), "zero"),
        (("PDMS", "SPA2", "G-EDF"), "paper"),
    ],
    ids=["fpts-ffd-wfd-paper", "bin-packing", "non-batchable"],
)
def test_sweep_counts_equal_separate_accept_calls(
    n_cores, algorithms, overheads
):
    """Every sweep point goes through one population-wide path; its
    counts must equal a plain loop of one :func:`accept` call per
    algorithm and task set, drawn with the sweep's per-point seeds."""
    n_tasks = 8
    model = (
        OverheadModel.paper_core_i7(n_tasks // n_cores)
        if overheads == "paper"
        else OverheadModel.zero()
    )
    config = AcceptanceConfig(
        n_cores=n_cores,
        n_tasks=n_tasks,
        sets_per_point=8,
        utilizations=[0.4, 0.6, 0.8, 0.9, 0.95],
        overheads=model,
        algorithms=algorithms,
        seed=5,
    )
    result = run_acceptance(config)
    for index, normalized in enumerate(config.utilizations):
        tasksets = TaskSetGenerator(
            n_tasks=n_tasks,
            seed=config.seed + 7919 * index,
            period_min=config.period_min,
            period_max=config.period_max,
        ).generate_many(normalized * n_cores, config.sets_per_point)
        for name in algorithms:
            count = sum(accept(name, ts, n_cores, model) for ts in tasksets)
            assert result.ratios[name][index] == count / len(tasksets), (
                name,
                normalized,
            )


class TestSensitivity:
    def test_scaling_monotone(self):
        """Mean acceptance must not increase as overheads grow."""
        config = AcceptanceConfig(
            n_cores=4,
            n_tasks=12,
            sets_per_point=15,
            utilizations=[0.9, 0.95],
            algorithms=("FP-TS", "FFD"),
        )
        sensitivity = run_overhead_sensitivity(
            config, factors=(0.0, 1.0, 100.0)
        )
        for name in ("FP-TS", "FFD"):
            means = [
                sensitivity.results[f].weighted_acceptance(name)
                for f in (0.0, 1.0, 100.0)
            ]
            assert means[0] >= means[1] >= means[2]

    def test_paper_claim_small_effect_at_calibrated_magnitude(self):
        """'The effect on the system schedulability is very small' at the
        paper's measured overhead magnitude."""
        config = AcceptanceConfig(
            n_cores=4,
            n_tasks=12,
            sets_per_point=20,
            utilizations=[0.85, 0.9],
            algorithms=("FP-TS",),
        )
        sensitivity = run_overhead_sensitivity(config, factors=(0.0, 1.0))
        assert sensitivity.delta_vs_zero("FP-TS", 1.0) <= 0.1

    def test_table(self):
        config = AcceptanceConfig(
            n_cores=2,
            n_tasks=6,
            sets_per_point=5,
            utilizations=[0.8],
            algorithms=("FFD",),
        )
        sensitivity = run_overhead_sensitivity(config, factors=(0.0, 1.0))
        assert "overhead sensitivity" in sensitivity.as_table("FFD")


class TestSplittingStats:
    def test_stats_structure(self):
        rows = splitting_statistics(
            utilizations=(0.6, 0.95),
            n_cores=2,
            n_tasks=6,
            sets_per_point=10,
        )
        assert len(rows) == 2
        low, high = rows
        assert low.sets_total == high.sets_total == 10
        # More splitting needed at higher utilization.
        assert high.mean_split_tasks >= low.mean_split_tasks

    def test_acceptance_property(self):
        rows = splitting_statistics(
            utilizations=(0.5,), n_cores=2, n_tasks=6, sets_per_point=5
        )
        assert rows[0].acceptance == 1.0
        assert rows[0].mean_split_tasks == 0.0  # nothing to split at U=1.0

    def test_table_render(self):
        rows = splitting_statistics(
            utilizations=(0.7,), n_cores=2, n_tasks=4, sets_per_point=3
        )
        assert "migr/s" in splitting_table(rows)
