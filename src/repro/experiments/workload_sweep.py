"""Trace-driven workload sweep: scale x storm-intensity grid (E9).

The realistic counterpart of the synthetic acceptance sweeps: start from
a *fitted* :class:`~repro.workload.profile.WorkloadProfile` (ingested
from a real trace, e.g. an Azure-Functions-style invocation log), then
sweep scenario **scale** (load multiplier) against **storm intensity**
(the ON-phase rate multiplier) and watch hard-deadline misses and
aperiodic response degrade.  Storm duration (``storm_on_ms`` /
``storm_off_ms``) is part of the config, so a second sweep over duration
is just another config.

Every grid point is one :class:`~repro.engine.WorkloadUnit`, so the
sweep inherits the engine's process pool, content-addressed cache,
journal/resume, and failure manifests.  Seed contract: point ``i`` uses
``seed + 7919 * i`` (the acceptance sweep's prime), and the same base
seed is shared across the storm axis so two intensities differ only by
the storm overlay, not by the sampled baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine import ExperimentEngine, ResultCache, WorkloadUnit
from repro.model.time import MS
from repro.workload.profile import WorkloadProfile


@dataclass
class WorkloadSweepConfig:
    """Parameters of one scale x storm-intensity sweep."""

    profile: WorkloadProfile
    horizon_ms: int = 2000
    seed: int = 2011
    scales: Sequence[float] = (1.0,)
    storm_intensities: Sequence[float] = (1.0, 2.0, 4.0)
    storm_on_ms: int = 100
    storm_off_ms: int = 400
    stream: str = ""  # empty = all streams in the profile
    server_kind: str = "deferrable"
    server_capacity_us: int = 2000
    server_period_us: int = 10000
    server_priority: int = 0
    n_hard_tasks: int = 4
    hard_utilization: float = 0.5
    period_min: int = 10 * MS
    period_max: int = 1000 * MS


@dataclass
class WorkloadSweepResult:
    """Per-grid-point payloads: ``cells[(scale, intensity)]``."""

    config: WorkloadSweepConfig
    cells: Dict[Tuple[float, float], Optional[dict]]

    def cell(self, scale: float, intensity: float) -> dict:
        for (s, i), payload in self.cells.items():
            if math.isclose(s, scale, rel_tol=1e-9) and math.isclose(
                i, intensity, rel_tol=1e-9
            ):
                if payload is None:
                    raise KeyError(
                        f"grid point ({scale}, {intensity}) failed"
                    )
                return payload
        raise KeyError(
            f"({scale!r}, {intensity!r}) is not a grid point of this sweep"
        )

    def as_table(self) -> str:
        header = (
            f"{'scale':>7} {'storm':>6} {'jobs':>7} {'done':>7} "
            f"{'misses':>7} {'mean_resp_us':>12} {'max_resp_us':>12}"
        )
        lines = [header]
        for (scale, intensity), payload in sorted(self.cells.items()):
            if payload is None:
                lines.append(
                    f"{scale:>7.2f} {intensity:>6.2f} "
                    + "FAILED".rjust(7)
                )
                continue
            completed = payload["completed"]
            mean_us = (
                payload["total_response_ns"] / completed / 1000.0
                if completed
                else 0.0
            )
            lines.append(
                f"{scale:>7.2f} {intensity:>6.2f} {payload['jobs']:>7} "
                f"{completed:>7} {payload['hard_misses']:>7} "
                f"{mean_us:>12.1f} "
                f"{payload['max_response_ns'] / 1000.0:>12.1f}"
            )
        return "\n".join(lines)


def workload_units(config: WorkloadSweepConfig) -> List[WorkloadUnit]:
    """Decompose the grid into work units, scale-major order.

    The unit seed advances with the *scale* index only: along the storm
    axis every unit draws the same baseline sample sequence, so two
    intensities differ exactly by the storm overlay (cache fingerprints
    still differ — the intensity is part of the unit config).
    """
    n_intensities = max(1, len(tuple(config.storm_intensities)))
    units = []
    for index, (scale, intensity) in enumerate(grid_points(config)):
        units.append(
            WorkloadUnit(
                profile=config.profile,
                horizon_ms=config.horizon_ms,
                seed=config.seed + 7919 * (index // n_intensities),
                scale=scale,
                stream=config.stream,
                storm_intensity=intensity,
                storm_on_ms=config.storm_on_ms,
                storm_off_ms=config.storm_off_ms,
                server_kind=config.server_kind,
                server_capacity_us=config.server_capacity_us,
                server_period_us=config.server_period_us,
                server_priority=config.server_priority,
                n_hard_tasks=config.n_hard_tasks,
                hard_utilization=config.hard_utilization,
                period_min=config.period_min,
                period_max=config.period_max,
            )
        )
    return units


def grid_points(
    config: WorkloadSweepConfig,
) -> List[Tuple[float, float]]:
    return [
        (scale, intensity)
        for scale in config.scales
        for intensity in config.storm_intensities
    ]


def assemble_workload_sweep(
    config: WorkloadSweepConfig, payloads: Sequence[Optional[dict]]
) -> WorkloadSweepResult:
    cells: Dict[Tuple[float, float], Optional[dict]] = {}
    for point, payload in zip(grid_points(config), payloads):
        cells[point] = payload
    return WorkloadSweepResult(config=config, cells=cells)


def run_workload_sweep(
    config: WorkloadSweepConfig,
    jobs: int = 1,
    cache: Union[ResultCache, str, None] = None,
    engine: Optional[ExperimentEngine] = None,
) -> WorkloadSweepResult:
    """Execute the sweep; deterministic for a fixed config/seed."""
    if engine is None:
        engine = ExperimentEngine(jobs=jobs, cache=cache)
    payloads = engine.run(workload_units(config))
    return assemble_workload_sweep(config, payloads)
