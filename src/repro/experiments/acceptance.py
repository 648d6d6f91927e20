"""Acceptance-ratio experiment (the paper's Section 4 comparison, E3).

For each normalized utilization level ``u`` the harness generates
``sets_per_point`` random task sets with total utilization ``u * m``, runs
every registered algorithm's overhead-aware acceptance test, and reports
the fraction accepted — the *acceptance ratio* curves that Section 4
summarises as "semi-partitioned scheduling indeed outperforms partitioned
scheduling in the presence of realistic run-time overheads".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.engine import AcceptanceUnit, ExperimentEngine, ResultCache
from repro.model.time import MS
from repro.overhead.model import OverheadModel


def default_utilization_grid() -> List[float]:
    """Normalized utilization points 0.600, 0.625, ..., 1.000."""
    return [round(0.600 + 0.025 * i, 3) for i in range(17)]


@dataclass
class AcceptanceConfig:
    """Parameters of one acceptance-ratio sweep."""

    n_cores: int = 4
    n_tasks: int = 12
    sets_per_point: int = 100
    utilizations: Sequence[float] = field(
        default_factory=default_utilization_grid
    )
    seed: int = 2011
    overheads: OverheadModel = field(default_factory=OverheadModel.zero)
    algorithms: Sequence[str] = ("FP-TS", "FFD", "WFD")
    period_min: int = 10 * MS
    period_max: int = 1000 * MS


@dataclass
class AcceptanceResult:
    """Acceptance ratios: ``ratios[algorithm][i]`` for ``utilizations[i]``."""

    config: AcceptanceConfig
    utilizations: List[float]
    ratios: Dict[str, List[float]]

    @property
    def failed_utilizations(self) -> List[float]:
        """Grid points whose work unit failed (NaN ratios) — non-empty
        only when the engine degraded gracefully instead of raising."""
        out = []
        for index, u in enumerate(self.utilizations):
            if any(
                math.isnan(self.ratios[name][index]) for name in self.ratios
            ):
                out.append(u)
        return out

    def ratio_at(self, algorithm: str, utilization: float) -> float:
        """Acceptance ratio at the grid point closest to ``utilization``.

        Matches with a tolerance (``math.isclose``) instead of float
        equality, so values reconstructed by arithmetic (``0.675`` from
        ``0.6 + 3 * 0.025``) still resolve to their grid point.
        """
        for index, candidate in enumerate(self.utilizations):
            if math.isclose(
                candidate, utilization, rel_tol=1e-9, abs_tol=1e-9
            ):
                return self.ratios[algorithm][index]
        raise KeyError(
            f"utilization {utilization!r} is not a grid point of this "
            f"sweep (grid: {self.utilizations})"
        )

    def weighted_acceptance(self, algorithm: str) -> float:
        """Mean acceptance over the sweep (area under the curve).

        Grid points whose work unit failed (NaN ratios) are excluded
        from the numerator *and* the denominator — a failed measurement
        must not poison the mean or silently count as a rejection.
        """
        values = [
            v for v in self.ratios[algorithm] if not math.isnan(v)
        ]
        return sum(values) / len(values) if values else 0.0

    def weighted_schedulability(self, algorithm: str) -> float:
        """Bastoni-style weighted schedulability: acceptance weighted by
        utilization, emphasising the high-load region where algorithms
        actually differ:  W = sum(u_i * S(u_i)) / sum(u_i).

        As for :meth:`weighted_acceptance`, failed grid points (NaN
        ratios) contribute to neither the weighted sum nor the weight
        total.
        """
        points = [
            (u, s)
            for u, s in zip(self.utilizations, self.ratios[algorithm])
            if not math.isnan(s)
        ]
        weight_total = sum(u for u, _ in points)
        if weight_total == 0:
            return 0.0
        return sum(u * s for u, s in points) / weight_total

    def breakdown_utilization(
        self, algorithm: str, threshold: float = 0.5
    ) -> Optional[float]:
        """First normalized utilization where acceptance drops below
        ``threshold`` — the 'collapse point' of the algorithm."""
        for u, ratio in zip(self.utilizations, self.ratios[algorithm]):
            if ratio < threshold:
                return u
        return None

    def as_table(self) -> str:
        algorithms = list(self.ratios)
        header = f"{'U/m':>6} " + " ".join(f"{a:>8}" for a in algorithms)
        lines = [header]
        for i, u in enumerate(self.utilizations):
            row = f"{u:>6.3f} " + " ".join(
                f"{self.ratios[a][i]:>8.3f}" for a in algorithms
            )
            lines.append(row)
        return "\n".join(lines)


def acceptance_units(config: AcceptanceConfig) -> List[AcceptanceUnit]:
    """Decompose a sweep into per-utilization-point work units.

    Seed contract (kept from the original serial loop): point ``i`` uses
    ``config.seed + 7919 * i``, so units are independent of execution
    order and process placement.
    """
    return [
        AcceptanceUnit(
            n_cores=config.n_cores,
            n_tasks=config.n_tasks,
            sets_per_point=config.sets_per_point,
            utilization=normalized,
            seed=config.seed + 7919 * point_index,
            algorithms=tuple(config.algorithms),
            overheads=config.overheads,
            period_min=config.period_min,
            period_max=config.period_max,
        )
        for point_index, normalized in enumerate(config.utilizations)
    ]


def assemble_acceptance(
    config: AcceptanceConfig, payloads: Sequence[Optional[dict]]
) -> AcceptanceResult:
    """Merge per-unit payloads (in unit order) into an AcceptanceResult.

    A ``None`` payload — a unit the engine gave up on after exhausting
    its retries — yields ``NaN`` ratios at that grid point (see
    :attr:`AcceptanceResult.failed_utilizations`) instead of an
    exception, so one bad unit cannot sink a whole sweep.
    """
    ratios: Dict[str, List[float]] = {name: [] for name in config.algorithms}
    for payload in payloads:
        if payload is None:
            for name in config.algorithms:
                ratios[name].append(math.nan)
            continue
        total = payload["total"]
        for name in config.algorithms:
            ratios[name].append(payload["accepted"][name] / total)
    return AcceptanceResult(
        config=config,
        utilizations=list(config.utilizations),
        ratios=ratios,
    )


def run_acceptance(
    config: AcceptanceConfig,
    jobs: int = 1,
    cache: Union[ResultCache, str, None] = None,
    engine: Optional[ExperimentEngine] = None,
) -> AcceptanceResult:
    """Execute the sweep.  Deterministic for a fixed config/seed:
    ``jobs > 1`` and caching change only where units execute, never the
    result.  Pass an :class:`ExperimentEngine` to share cache/stat
    counters across several sweeps (the campaign and sensitivity
    harnesses do)."""
    if engine is None:
        engine = ExperimentEngine(jobs=jobs, cache=cache)
    payloads = engine.run(acceptance_units(config))
    return assemble_acceptance(config, payloads)
