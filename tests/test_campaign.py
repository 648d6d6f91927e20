"""Tests for the factorial campaign runner."""

from __future__ import annotations

import csv
import io
import math

import pytest

from repro.experiments.campaign import (
    CRITERIA_AXES,
    CampaignRecord,
    CampaignResult,
    run_campaign,
)
from repro.overhead.model import OverheadModel


@pytest.fixture(scope="module")
def small_campaign() -> CampaignResult:
    return run_campaign(
        core_counts=(2, 4),
        task_counts=(6,),
        algorithms=("FP-TS", "FFD"),
        overhead_specs=(
            ("zero", OverheadModel.zero()),
            ("paper", OverheadModel.paper_core_i7(3)),
        ),
        utilizations=(0.7, 0.95),
        sets_per_point=8,
    )


class TestRunCampaign:
    def test_record_count(self, small_campaign):
        # 2 cores x 1 task-count x 2 overheads x 2 algorithms x 2 points.
        assert len(small_campaign.records) == 2 * 2 * 2 * 2

    def test_filtered(self, small_campaign):
        rows = small_campaign.filtered(algorithm="FFD", n_cores=2)
        assert len(rows) == 4
        assert all(r.algorithm == "FFD" for r in rows)

    def test_acceptance_in_range(self, small_campaign):
        assert all(
            0.0 <= r.acceptance <= 1.0 for r in small_campaign.records
        )

    def test_fpts_dominates_ffd_in_campaign(self, small_campaign):
        for n_cores in (2, 4):
            fpts = small_campaign.mean_acceptance(
                algorithm="FP-TS", n_cores=n_cores
            )
            ffd = small_campaign.mean_acceptance(
                algorithm="FFD", n_cores=n_cores
            )
            assert fpts >= ffd - 1e-9

    def test_overheads_never_help(self, small_campaign):
        for algorithm in ("FP-TS", "FFD"):
            zero = small_campaign.mean_acceptance(
                algorithm=algorithm, overheads="zero"
            )
            paper = small_campaign.mean_acceptance(
                algorithm=algorithm, overheads="paper"
            )
            assert zero >= paper - 1e-9

    def test_skips_infeasible_combinations(self):
        result = run_campaign(
            core_counts=(8,),
            task_counts=(4,),  # fewer tasks than cores: skipped
            algorithms=("FFD",),
            utilizations=(0.5,),
            sets_per_point=2,
        )
        assert result.records == []

    def test_deterministic(self):
        kwargs = dict(
            core_counts=(2,),
            task_counts=(5,),
            algorithms=("FFD",),
            utilizations=(0.8,),
            sets_per_point=6,
        )
        a = run_campaign(**kwargs)
        b = run_campaign(**kwargs)
        assert a.records == b.records


class TestOutput:
    def test_pivot(self, small_campaign):
        table = small_campaign.pivot()
        assert "FP-TS" in table and "FFD" in table

    def test_csv(self, small_campaign, tmp_path):
        path = tmp_path / "campaign.csv"
        text = small_campaign.to_csv(path)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "n_cores",
            "n_tasks",
            "overheads",
            "algorithm",
            "utilization",
            "acceptance",
            "preemptions",
            "migrations",
            "spare_balance",
            "packing_slack",
            "avg_power_mw",
            "energy_per_hp_uj",
        ]
        assert len(rows) == 1 + len(small_campaign.records)
        assert path.read_text() == text

    def test_csv_blank_criteria_without_criteria_run(self, small_campaign):
        rows = list(csv.reader(io.StringIO(small_campaign.to_csv())))
        # Without criteria=True the six axis columns stay empty, not 'nan'.
        assert all(row[6:] == [""] * 6 for row in rows[1:])

    def test_mean_on_empty_filter(self, small_campaign):
        assert small_campaign.mean_acceptance(algorithm="GHOST") == 0.0

    def test_pivot_rejects_unknown_value_key(self, small_campaign):
        with pytest.raises(ValueError, match="unknown value key"):
            small_campaign.pivot(value_key="n_tasks")


class TestCriteria:
    @pytest.fixture(scope="class")
    def criteria_campaign(self) -> CampaignResult:
        return run_campaign(
            core_counts=(2,),
            task_counts=(5,),
            algorithms=("FP-TS", "FFD"),
            overhead_specs=(("paper", OverheadModel.paper_core_i7(3)),),
            utilizations=(0.6, 0.8),
            sets_per_point=4,
            criteria=True,
            sim_sets=2,
        )

    def test_axes_populated(self, criteria_campaign):
        measured = [
            r
            for r in criteria_campaign.records
            if not math.isnan(r.spare_balance)
        ]
        assert measured, "criteria=True must fill axes somewhere"
        for record in measured:
            assert 0.0 <= record.spare_balance <= 1.0 + 1e-9
            assert record.packing_slack <= 1.0 + 1e-9
            assert record.preemptions >= 0.0
            assert record.migrations >= 0.0
            assert record.avg_power_mw > 0.0
            assert record.energy_per_hp_uj > 0.0

    def test_axis_pivots_render(self, criteria_campaign):
        for axis in CRITERIA_AXES:
            table = criteria_campaign.pivot(value_key=axis)
            assert "FP-TS" in table

    def test_csv_carries_axes(self, criteria_campaign):
        rows = list(csv.reader(io.StringIO(criteria_campaign.to_csv())))
        body = rows[1:]
        assert any(row[6] != "" for row in body)

    def test_deterministic(self, criteria_campaign):
        again = run_campaign(
            core_counts=(2,),
            task_counts=(5,),
            algorithms=("FP-TS", "FFD"),
            overhead_specs=(("paper", OverheadModel.paper_core_i7(3)),),
            utilizations=(0.6, 0.8),
            sets_per_point=4,
            criteria=True,
            sim_sets=2,
        )
        assert again.records == criteria_campaign.records


class _FailPointEngine:
    """Engine wrapper that nulls the payloads of one utilization point,
    exactly as ExperimentEngine does after exhausting retries."""

    def __init__(self, fail_utilization: float):
        from repro.engine import ExperimentEngine

        self.fail_utilization = fail_utilization
        self._engine = ExperimentEngine()

    def run(self, units):
        payloads = self._engine.run(units)
        return [
            None
            if math.isclose(unit.utilization, self.fail_utilization)
            else payload
            for unit, payload in zip(units, payloads)
        ]


class TestFailedUnits:
    """Satellite regression: a failed work unit must surface as a *gap*
    (failed_units + missing records + ``-`` pivot cells), never as a
    silent 0.0 acceptance that reads like total rejection."""

    @pytest.fixture(scope="class")
    def partial(self) -> CampaignResult:
        return run_campaign(
            core_counts=(2,),
            task_counts=(5,),
            algorithms=("FFD",),
            utilizations=(0.6, 0.9),
            sets_per_point=4,
            engine=_FailPointEngine(fail_utilization=0.9),
        )

    def test_failed_point_listed_not_recorded(self, partial):
        assert partial.is_partial
        assert [f["utilization"] for f in partial.failed_units] == [0.9]
        assert all(r.utilization != 0.9 for r in partial.records)

    def test_failed_point_absent_from_pivot(self, partial):
        # The failed utilization contributes no records, so it cannot
        # appear as a 0.000 column: it is absent from the pivot.
        table = partial.pivot(
            row_key="algorithm", column_key="utilization"
        )
        assert "0.9" not in table
        assert "0.000" not in table

    def test_unmeasured_cell_renders_dash_not_zero(self):
        # A record whose criteria axis is NaN (e.g. the algorithm
        # accepted no set to simulate) renders `-`, never 0.000.
        result = CampaignResult(
            records=[
                CampaignRecord(
                    n_cores=2,
                    n_tasks=5,
                    overheads="zero",
                    algorithm="A",
                    utilization=0.6,
                    acceptance=1.0,
                    avg_power_mw=2000.0,
                ),
                CampaignRecord(
                    n_cores=4,
                    n_tasks=5,
                    overheads="zero",
                    algorithm="A",
                    utilization=0.6,
                    acceptance=0.5,
                ),
            ]
        )
        table = result.pivot(value_key="avg_power_mw")
        row = next(line for line in table.splitlines() if "A" in line)
        cells = row.split()[1:]
        assert cells == ["2000.000", "-"]

    def test_mean_acceptance_ignores_the_gap(self, partial):
        # The mean over FFD's records equals the surviving point's value,
        # not that value averaged with a phantom 0.0.
        surviving = [r.acceptance for r in partial.records]
        assert partial.mean_acceptance(algorithm="FFD") == pytest.approx(
            sum(surviving) / len(surviving)
        )


def _separate_criteria(unit):
    """A criteria payload with every algorithm built and simulated on its
    own: each algorithm's first ``sim_sets`` accepted sets, one
    ``KernelSim`` run each, no runs shared between algorithms."""
    from repro.experiments.algorithms import ALGORITHMS, build_assignment
    from repro.kernel.sim import KernelSim
    from repro.model.generator import TaskSetGenerator

    tasksets = TaskSetGenerator(
        n_tasks=unit.n_tasks,
        seed=unit.seed,
        period_min=unit.period_min,
        period_max=unit.period_max,
    ).generate_many(unit.utilization * unit.n_cores, unit.sets_per_point)

    def mean(rows, column):
        return sum(row[column] for row in rows) / len(rows)

    accepted, criteria = {}, {}
    for name in unit.algorithms:
        static, dynamic = [], []
        for taskset in tasksets:
            assignment = build_assignment(
                name, taskset, unit.n_cores, unit.overheads
            )
            if assignment is None:
                continue
            utils = [core.utilization for core in assignment.cores]
            spare = [max(0.0, 1.0 - u) for u in utils]
            mean_spare = sum(spare) / len(spare)
            static.append((
                min(spare) / mean_spare if mean_spare > 0 else 1.0,
                1.0 - sum(utils) / unit.n_cores,
            ))
            if len(dynamic) >= unit.sim_sets:
                continue
            result = KernelSim(
                assignment,
                unit.overheads,
                duration=2 * max(task.period for task in taskset),
                execution_times={task.name: task.wcet for task in taskset},
                seed=unit.seed,
                sched_class=ALGORITHMS[name].sched_class,
            ).run()
            releases = max(1, result.releases)
            hyperperiod = math.lcm(*(task.period for task in taskset))
            try:
                per_hp = float(result.energy.energy_per_ns(hyperperiod)) / 1e6
            except OverflowError:
                per_hp = math.inf
            dynamic.append((
                result.preemptions / releases,
                result.migrations / releases,
                float(result.energy.average_power_mw),
                per_hp,
            ))
        accepted[name] = len(static)
        if not static:
            criteria[name] = None
            continue
        criteria[name] = {
            "spare_balance": mean(static, 0),
            "packing_slack": mean(static, 1),
            "preemptions": mean(dynamic, 0) if dynamic else None,
            "migrations": mean(dynamic, 1) if dynamic else None,
            "avg_power_mw": mean(dynamic, 2) if dynamic else None,
            "energy_per_hp_uj": mean(dynamic, 3) if dynamic else None,
        }
    return {
        "accepted": accepted,
        "total": len(tasksets),
        "criteria": criteria,
    }


class TestCriteriaSharedSimulation:
    """FFD's assignment is FP-TS's own whenever FP-TS splits nothing, so
    the criteria unit simulates it once for both algorithms."""

    def test_payload_equals_separate_runs_with_fewer_simulations(
        self, monkeypatch
    ):
        from repro.engine.units import CriteriaUnit, execute_unit
        from repro.kernel.sim import KernelSim

        unit = CriteriaUnit(
            n_cores=2,
            n_tasks=6,
            sets_per_point=6,
            utilization=0.8,
            seed=11,
            algorithms=("FP-TS", "FFD", "WFD"),
            overheads=OverheadModel.paper_core_i7(3),
            sim_sets=3,
        )
        runs = [0]
        original = KernelSim.run

        def counted(self):
            runs[0] += 1
            return original(self)

        monkeypatch.setattr(KernelSim, "run", counted)
        payload = execute_unit(unit)
        shared_runs, runs[0] = runs[0], 0
        reference = _separate_criteria(unit)
        assert payload == reference
        assert payload["accepted"]["FFD"] > 0
        assert shared_runs < runs[0]
