"""Random task-set generation.

The PPES'11 paper evaluates "randomly generated task sets" without printing
the generator parameters; its reference [4] (Guan et al., RTAS 2010 — the
FP-TS paper) uses the standard recipe that we implement here:

* per-task utilizations from **UUniFast** (Bini & Buttazzo, 2005), optionally
  with the *discard* variant that rejects draws containing a task with
  utilization above a cap;
* periods drawn **log-uniformly** from a range (default 10 ms .. 1000 ms,
  typical embedded rates);
* WCET = round(utilization × period), clamped to at least 1 ns.

All randomness flows through an explicit ``random.Random`` instance so every
experiment is reproducible from a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS, US


def uunifast(rng: random.Random, n: int, total_utilization: float) -> List[float]:
    """Draw ``n`` utilizations summing to ``total_utilization`` (UUniFast).

    Produces an unbiased uniform sample from the simplex
    ``{u : sum(u) = U, u_i > 0}``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if total_utilization <= 0:
        raise ValueError("total_utilization must be positive")
    utilizations = []
    remaining = total_utilization
    for i in range(1, n):
        next_remaining = remaining * rng.random() ** (1.0 / (n - i))
        utilizations.append(remaining - next_remaining)
        remaining = next_remaining
    utilizations.append(remaining)
    return utilizations


def uunifast_discard(
    rng: random.Random,
    n: int,
    total_utilization: float,
    max_task_utilization: float = 1.0,
    max_attempts: int = 10_000,
) -> List[float]:
    """UUniFast with rejection of draws exceeding ``max_task_utilization``.

    For multiprocessor experiments the total utilization exceeds 1, so plain
    UUniFast can emit tasks with utilization > 1 (infeasible).  The standard
    fix (Davis & Burns) is to discard and redraw.
    """
    if total_utilization > n * max_task_utilization:
        raise ValueError(
            f"cannot fit total utilization {total_utilization} with "
            f"{n} tasks capped at {max_task_utilization}"
        )
    for _attempt in range(max_attempts):
        utilizations = uunifast(rng, n, total_utilization)
        if max(utilizations) <= max_task_utilization:
            return utilizations
    raise RuntimeError(
        f"uunifast_discard failed after {max_attempts} attempts "
        f"(n={n}, U={total_utilization}, cap={max_task_utilization})"
    )


def log_uniform_periods(
    rng: random.Random,
    n: int,
    period_min: int,
    period_max: int,
    granularity: int = 100 * US,
) -> List[int]:
    """Draw ``n`` periods log-uniformly in ``[period_min, period_max]`` ns.

    Results are rounded to ``granularity`` so hyperperiods stay finite and
    simulation horizons reasonable.
    """
    if period_min <= 0 or period_max < period_min:
        raise ValueError("invalid period range")
    periods = []
    log_min = math.log(period_min)
    log_max = math.log(period_max)
    for _ in range(n):
        raw = math.exp(rng.uniform(log_min, log_max))
        quantized = max(granularity, int(round(raw / granularity)) * granularity)
        quantized = min(quantized, (period_max // granularity) * granularity)
        periods.append(quantized)
    return periods


@dataclass
class GeneratedBatch:
    """A population of generated task sets in struct-of-arrays form.

    Arrays are (sets, tasks) int64, each lane packed in rate-monotonic
    priority order (column index == priority rank); ``names`` carries
    the per-lane task names in the same order.  The arrays feed the
    batch analysis layer directly
    (``repro.analysis.batch.TaskSetPopulation.from_arrays``);
    :meth:`tasksets` materializes the identical scalar
    :class:`~repro.model.taskset.TaskSet` objects on demand (memoized)
    for fallback paths and differential checks.
    """

    wcet: np.ndarray
    period: np.ndarray
    deadline: np.ndarray
    wss: np.ndarray
    names: Tuple[Tuple[str, ...], ...]
    _memo: Optional[List[TaskSet]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_sets(self) -> int:
        return self.wcet.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.wcet.shape[1]

    def tasksets(self) -> List[TaskSet]:
        """The same task sets as scalar objects, bit-identical to what
        ``generate_many`` would have produced from the same seed."""
        if self._memo is None:
            self._memo = [
                TaskSet(
                    Task(
                        name=self.names[row][col],
                        wcet=int(self.wcet[row, col]),
                        period=int(self.period[row, col]),
                        deadline=int(self.deadline[row, col]),
                        priority=col,
                        wss=int(self.wss[row, col]),
                    )
                    for col in range(self.n_tasks)
                )
                for row in range(self.n_sets)
            ]
        return self._memo


@dataclass
class TaskSetGenerator:
    """Reusable, seeded task-set factory for the evaluation harness.

    Parameters mirror the FP-TS experimental setup: ``n`` tasks whose
    utilizations are drawn by UUniFast-discard (default) or Stafford's
    RandFixedSum (``method="randfixedsum"``), log-uniform periods in
    ``[period_min, period_max]``, implicit deadlines, RM priorities.

    >>> gen = TaskSetGenerator(n_tasks=8, seed=42)
    >>> ts = gen.generate(total_utilization=3.2)
    >>> len(ts), abs(ts.total_utilization - 3.2) < 0.05
    (8, True)
    """

    n_tasks: int
    seed: int = 0
    period_min: int = 10 * MS
    period_max: int = 1000 * MS
    period_granularity: int = 100 * US
    max_task_utilization: float = 1.0
    wss_min: int = 4 * 1024
    wss_max: int = 256 * 1024
    assign_rm: bool = True
    method: str = "uunifast"
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_tasks <= 0:
            raise ValueError("n_tasks must be positive")
        if self.method not in ("uunifast", "randfixedsum"):
            raise ValueError(
                f"unknown method {self.method!r}; use 'uunifast' or "
                "'randfixedsum'"
            )
        self._rng = random.Random(self.seed)

    def reseed(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def _draw_utilizations(self, total_utilization: float) -> List[float]:
        if self.method == "randfixedsum":
            from repro.model.randfixedsum import randfixedsum

            return randfixedsum(
                self._rng,
                self.n_tasks,
                total_utilization,
                low=0.0,
                high=self.max_task_utilization,
            )
        return uunifast_discard(
            self._rng,
            self.n_tasks,
            total_utilization,
            self.max_task_utilization,
        )

    def generate(self, total_utilization: float) -> TaskSet:
        """Generate one task set with the requested total utilization."""
        utilizations = self._draw_utilizations(total_utilization)
        periods = log_uniform_periods(
            self._rng,
            self.n_tasks,
            self.period_min,
            self.period_max,
            self.period_granularity,
        )
        tasks = []
        for index, (u, period) in enumerate(zip(utilizations, periods)):
            wcet = max(1, int(round(u * period)))
            wcet = min(wcet, period)  # keep u <= 1 after rounding
            wss = self._rng.randint(self.wss_min, self.wss_max)
            tasks.append(
                Task(
                    name=f"t{index:03d}",
                    wcet=wcet,
                    period=period,
                    wss=wss,
                )
            )
        taskset = TaskSet(tasks)
        if self.assign_rm:
            taskset = taskset.assign_rate_monotonic()
        return taskset

    def generate_many(
        self, total_utilization: float, count: int
    ) -> List[TaskSet]:
        return [self.generate(total_utilization) for _ in range(count)]

    def generate_batch(
        self, total_utilization: float, count: int
    ) -> GeneratedBatch:
        """Generate ``count`` task sets as one struct-of-arrays batch.

        Bit-identical to ``generate_many(total_utilization, count)``:
        the random draws (UUniFast rejection loops, log-uniform periods,
        working-set sizes) are data-dependent and stay on the scalar
        ``random.Random`` stream in the exact per-set order, while the
        derived arithmetic — WCET rounding/clamping and the packing into
        rate-monotonic priority order — runs vectorized over the whole
        batch.  ``np.rint`` is round-half-to-even, the same rule as
        Python's ``round``, so the WCETs match integer for integer.
        """
        if not self.assign_rm:
            raise ValueError(
                "generate_batch requires assign_rm=True: batch lanes "
                "are packed in rate-monotonic priority order"
            )
        import numpy as np

        n = self.n_tasks
        utilization = np.empty((count, n), dtype=np.float64)
        periods = np.empty((count, n), dtype=np.int64)
        wss = np.empty((count, n), dtype=np.int64)
        for row in range(count):
            utilization[row] = self._draw_utilizations(total_utilization)
            periods[row] = log_uniform_periods(
                self._rng,
                n,
                self.period_min,
                self.period_max,
                self.period_granularity,
            )
            for col in range(n):
                wss[row, col] = self._rng.randint(
                    self.wss_min, self.wss_max
                )
        wcet = np.minimum(
            np.maximum(np.rint(utilization * periods).astype(np.int64), 1),
            periods,
        )
        # Rate-monotonic rank per lane: the scalar path sorts tasks by
        # (period, name); replicate with python sorted on the identical
        # keys so period ties break the same way.
        base_names = [f"t{col:03d}" for col in range(n)]
        order = np.empty((count, n), dtype=np.int64)
        for row in range(count):
            lane = periods[row]
            order[row] = sorted(
                range(n), key=lambda col: (lane[col], base_names[col])
            )
        rows = np.arange(count)[:, None]
        period_rm = periods[rows, order]
        return GeneratedBatch(
            wcet=wcet[rows, order],
            period=period_rm,
            deadline=period_rm.copy(),
            wss=wss[rows, order],
            names=tuple(
                tuple(base_names[col] for col in lane)
                for lane in order.tolist()
            ),
        )
