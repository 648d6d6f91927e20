"""Struct-of-arrays batch analysis: whole populations in lock-step.

The acceptance sweeps ask the same question — *does this heuristic accept
this task set on m cores?* — for every set of a sweep point's population.
The scalar engines (:mod:`repro.analysis.incremental`) answer one set at
a time; this module packs a whole population into aligned numpy arrays
(one **lane** per task set) and answers all of them together:

* **batched RTA fixed point** — the Joseph & Pandya update
  ``R' = C + sum ceil(R / T_hp) * C_hp`` runs as one int64 tensor
  expression over every (lane, core, priority position) at once, with a
  per-lane convergence mask: positions whose iterate converged (or
  overshot their deadline) freeze while stragglers keep iterating.  All
  arithmetic is exact int64 — the batched iterates are the *same*
  integers the scalar loop produces, so verdicts and response times are
  bit-identical, not merely close;
* **batched EDF admission** — implicit-deadline lanes reduce to the
  utilization test (accumulated in scalar commit order, so the float
  sums are IEEE-identical to the scalar left-to-right sums);
  constrained-deadline lanes run exact processor-demand analysis over a
  shared, deduplicated checkpoint grid (a superset of each lane's own
  deadline lattice cannot change the exact test's verdict: dbf is a
  right-continuous step function, so any violation is already visible
  at the lane's own lattice point at or below it);
* **fast-path filters** — sound utilization / hyperbolic-bound screens
  (with explicit float-error margins) retire most lanes and probes
  before any fixed-point iteration runs.  Each filter only ever fires
  where the exact test is *guaranteed* to agree, so the accept/reject
  vector still matches the scalar engines bit for bit.

The packer (:func:`batch_partition_accept_multi`) replays the decreasing-
utilization bin-packing heuristics (first/next/best/worst-fit) over all
lanes simultaneously; committed state per (lane, core) — membership
masks, commit-order float utilization, cached responses for warm starts
— lives in struct-of-arrays form.  The batch layer answers the
admit/reject and response-time queries that the plain partitioners ask,
and anything it cannot express falls back to the scalar contexts lane
by lane (see ``repro.experiments.algorithms.accept_populations``).

FP-TS rides on the first-fit row: its whole-task phase is FFD, so every
lane the batched FFD row accepts is an FP-TS accept, and only the
FFD-rejected lanes reach the scalar splitter
(``repro.experiments.algorithms.accept_populations``).  The splitting
itself stays scalar.

Work is counted in a :class:`BatchStats` (module-global
:data:`BATCH_STATS` by default), published as the ``ana_batch_*``
metric family by :func:`repro.metrics.report.record_batch_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclasses_field
from typing import List, Optional, Sequence, Tuple

# numpy is imported inside the functions that run the kernels, so
# BATCH_STATS and the population types load without it.
from repro.cache.model import CacheHierarchy, CachePenaltyModel
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.overhead.accounting import per_job_overhead
from repro.overhead.model import OverheadModel

#: Epsilon of the scalar RTA utilization fast path
#: (:meth:`repro.analysis.incremental.CoreAnalysisContext.probe`).
RTA_UTIL_EPS = 1e-9

#: Epsilon of the scalar EDF utilization test
#: (:func:`repro.analysis.edf.edf_schedulable`).
EDF_UTIL_EPS = 1e-12

#: Safety margin for float fast paths that the scalar engines do not
#: have: the hyperbolic product and the whole-set utilization screens
#: only fire when they clear the exact threshold by this much, so
#: float accumulation error (~1e-13 for a dozen terms) can never make
#: a fast path disagree with the exact integer test.
FASTPATH_MARGIN = 1e-9

#: Maximum (rows x checkpoints) the shared EDF demand grid may reach
#: before constrained-deadline rows fall back to the scalar test.
MAX_DEMAND_CELLS = 4_000_000

PLACEMENTS = ("first-fit", "next-fit", "best-fit", "worst-fit")


class PopulationError(ValueError):
    """The task sets cannot be packed into one aligned population."""


class BatchStats:
    """Work counters for the batch kernels (deterministic, ``ana_batch_*``).

    ``lanes`` counts task sets submitted to a batch verdict call;
    ``lanes_fastpath`` the subset decided without a single vectorized
    RTA iteration (whole-set screens plus all-fast-path packing);
    ``vector_iterations`` batched fixed-point update steps (each step
    advances every still-active lane at once — the scalar equivalent is
    one iteration *per probe*); ``probes_rta`` / ``probes_edf``
    per-(lane, core) admission questions answered by the respective
    kernel; ``scalar_fallbacks`` lanes handed back to the scalar
    contexts because the batch layer could not express them.  FP-TS
    lanes that the batched FFD row rejects go to the scalar splitter
    by design (splitting is not batched); they are FP-TS's own work,
    not a batch failure, and are not counted as ``scalar_fallbacks``.
    """

    __slots__ = (
        "lanes",
        "lanes_fastpath",
        "probes_rta",
        "probes_edf",
        "vector_iterations",
        "scalar_fallbacks",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.lanes = 0
        self.lanes_fastpath = 0
        self.probes_rta = 0
        self.probes_edf = 0
        self.vector_iterations = 0
        self.scalar_fallbacks = 0

    def snapshot(self) -> dict:
        return {
            "lanes": self.lanes,
            "lanes_fastpath": self.lanes_fastpath,
            "probes_rta": self.probes_rta,
            "probes_edf": self.probes_edf,
            "vector_iterations": self.vector_iterations,
            "scalar_fallbacks": self.scalar_fallbacks,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchStats({self.snapshot()})"


#: Module-global counters, mirroring :data:`repro.analysis.incremental.STATS`.
BATCH_STATS = BatchStats()


@dataclass(frozen=True)
class TaskSetPopulation:
    """A population of same-shape task sets as aligned (lane, task) arrays.

    Tasks are packed in **global priority order** (rank 0 = highest), so
    a lane's column index is simultaneously its RM priority rank; names
    ride along for the decreasing-utilization placement order's
    tie-break, which the scalar partitioners resolve by task name.
    """

    wcet: np.ndarray  # (lanes, tasks) int64, raw (uninflated) WCETs
    period: np.ndarray  # (lanes, tasks) int64
    deadline: np.ndarray  # (lanes, tasks) int64
    wss: np.ndarray  # (lanes, tasks) int64
    names: Tuple[Tuple[str, ...], ...]
    #: Derived-array cache (inflated costs, utilizations, placement
    #: orders keyed by overhead model) — population data is immutable,
    #: so repeated verdict calls (one per algorithm) share the work.
    _memo: dict = dataclasses_field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n_sets(self) -> int:
        return self.wcet.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.wcet.shape[1]

    @classmethod
    def from_arrays(
        cls, wcet, period, deadline, wss, names
    ) -> "TaskSetPopulation":
        import numpy as np

        return cls(
            wcet=np.ascontiguousarray(wcet, dtype=np.int64),
            period=np.ascontiguousarray(period, dtype=np.int64),
            deadline=np.ascontiguousarray(deadline, dtype=np.int64),
            wss=np.ascontiguousarray(wss, dtype=np.int64),
            names=tuple(tuple(lane) for lane in names),
        )

    @classmethod
    def from_tasksets(
        cls, tasksets: Sequence[TaskSet]
    ) -> "TaskSetPopulation":
        """Pack ``tasksets`` (uniform size, priorities assigned) into a
        population; raises :class:`PopulationError` otherwise."""
        import numpy as np

        sets = list(tasksets)
        sizes = {len(ts) for ts in sets}
        if len(sizes) > 1:
            raise PopulationError(
                f"task sets have differing sizes {sorted(sizes)}; "
                "a population needs one aligned shape"
            )
        n = sizes.pop() if sizes else 0
        if sets and n == 0:
            raise PopulationError("cannot pack empty task sets")
        lanes = []
        for ts in sets:
            try:
                lanes.append(ts.sorted_by_priority())
            except ValueError as exc:
                raise PopulationError(str(exc)) from None
        shape = (len(sets), n)
        wcet = np.empty(shape, dtype=np.int64)
        period = np.empty(shape, dtype=np.int64)
        deadline = np.empty(shape, dtype=np.int64)
        wss = np.empty(shape, dtype=np.int64)
        names = []
        for row, lane in enumerate(lanes):
            for col, task in enumerate(lane):
                wcet[row, col] = task.wcet
                period[row, col] = task.period
                deadline[row, col] = task.deadline
                wss[row, col] = task.wss
            names.append(tuple(task.name for task in lane))
        return cls(
            wcet=wcet,
            period=period,
            deadline=deadline,
            wss=wss,
            names=tuple(names),
        )

    def tasksets(self, rows: Optional[Sequence[int]] = None) -> List[TaskSet]:
        """Materialize scalar :class:`TaskSet` objects (priority order,
        priorities 0..n-1) — the lane-wise fallback path — for every
        lane, or only for the lanes listed in ``rows``."""
        out = []
        for row in range(self.n_sets) if rows is None else rows:
            tasks = [
                Task(
                    name=self.names[row][col],
                    wcet=int(self.wcet[row, col]),
                    period=int(self.period[row, col]),
                    deadline=int(self.deadline[row, col]),
                    wss=int(self.wss[row, col]),
                ).with_priority(col)
                for col in range(self.n_tasks)
            ]
            out.append(TaskSet(tasks))
        return out

    def inflated_wcet(self, model: OverheadModel) -> np.ndarray:
        """Per-lane overhead inflation, exactly as
        :func:`repro.overhead.accounting.inflate_taskset` applies it:
        one per-job charge from the lane's largest working set, added to
        every WCET and clamped to the deadline."""
        import numpy as np

        if self.n_sets == 0 or self.n_tasks == 0:
            return self.wcet.copy()
        lane_wss = self.wss.max(axis=1)
        cache = model.cache
        hierarchy = getattr(cache, "hierarchy", None)
        if type(cache) is CachePenaltyModel and type(
            hierarchy
        ) is CacheHierarchy:
            # Vectorized mirror of ``CachePenaltyModel.preemption_delay``
            # (same ceil-divide line count and half-even rounding —
            # ``np.rint`` matches python's ``round``).  Subclassed cache
            # models keep the dynamic-dispatch loop below.
            base = per_job_overhead(model, 0)
            lines = -(-lane_wss // hierarchy.line_bytes)
            full = np.where(
                (lane_wss <= hierarchy.shared_bytes)
                & (hierarchy.shared_bytes > 0),
                lines * hierarchy.l3_line_ns,
                lines * hierarchy.memory_line_ns,
            )
            delay = np.where(
                lane_wss <= hierarchy.private_bytes,
                np.rint(
                    full * (1.0 - cache.local_survival)
                ).astype(np.int64),
                full,
            )
            charges = base + np.where(lane_wss > 0, delay, 0)
        else:
            charges = np.fromiter(
                (per_job_overhead(model, int(wss)) for wss in lane_wss),
                dtype=np.int64,
                count=self.n_sets,
            )
        return np.minimum(self.wcet + charges[:, None], self.deadline)


def _name_ranks(names) -> np.ndarray:
    """Per-lane ascending-name rank of each column (0 = lexicographically
    smallest).  Numpy ``<U`` comparison is code-point lexicographic with
    null padding, identical to python ``str`` ordering for the tie-break."""
    import numpy as np

    arr = np.array(names)
    if arr.ndim == 1:  # zero-task lanes collapse the second axis
        arr = arr.reshape(len(names), -1)
    lanes, n = arr.shape
    asc = np.argsort(arr, axis=1, kind="stable")
    rank = np.empty((lanes, n), dtype=np.int64)
    np.put_along_axis(
        rank, asc, np.broadcast_to(np.arange(n), (lanes, n)), axis=1
    )
    return rank


def _placement_order(u: np.ndarray, name_rank: np.ndarray) -> np.ndarray:
    """Decreasing-utilization placement order per lane — the exact
    semantics of ``TaskSet.sorted_by_utilization(descending=True)``:
    python ``sorted`` on ``(utilization, name)`` with ``reverse=True``.
    Implemented as a stable two-pass row-wise sort (descending name,
    then descending utilization): float negation is exact, so the float
    comparisons and the name tie-breaks match the scalar path."""
    import numpy as np

    sec = np.argsort(-name_rank, axis=1, kind="stable")
    u_sec = np.take_along_axis(u, sec, axis=1)
    prim = np.argsort(-u_sec, axis=1, kind="stable")
    return np.take_along_axis(sec, prim, axis=1)


# Strict-lower-triangle masks, cached by size: LT[p, q] == (q < p).
_LT_CACHE: dict = {}


def _lower_triangle(n: int) -> np.ndarray:
    import numpy as np

    mask = _LT_CACHE.get(n)
    if mask is None:
        mask = np.tril(np.ones((n, n), dtype=bool), k=-1)
        _LT_CACHE[n] = mask
    return mask


def _fixed_point(
    budget: np.ndarray,
    coef: np.ndarray,
    period: np.ndarray,
    add: np.ndarray,
    cap: np.ndarray,
    start: np.ndarray,
    source_cost: np.ndarray,
    stats: BatchStats,
    decide: bool = False,
) -> np.ndarray:
    """Batched capped least-fixed-point iteration.

    Shapes: ``budget``/``cap``/``start`` are (rows, P) — one *position*
    per wanted fixed point; ``period``/``add``/``source_cost`` are
    (rows, K) — one *source* per interference contributor; ``coef`` is
    (rows, P, K) with ``coef[r, p, q]`` the budget source ``q`` charges
    position ``p`` (0 = no interference).  A position with
    ``cap == 0`` (and ``budget == 0``) is padding and stays pinned at 0.
    ``start`` must hold valid lower bounds of each least fixed point;
    ``source_cost`` must dominate ``coef`` along P (it sizes the float
    fast path's exactness bound).

    The loop is the capped update ``R' = min(f(R), cap)`` with
    ``f(R)_p = budget_p + sum_q floor((R_p + add_q) / T_q) * coef_pq``
    (``add = jitter + period - 1`` turns the floor into the RTA ceil):

    * from any integer start below the least fixed point, iterating the
      monotone ``f`` converges to exactly that least fixed point (the
      iterates stay bounded by it and, being integers, terminate on a
      fixed point, which minimality forces to be the least one) — so
      converged responses are bit-identical to the scalar loop's;
    * if the least fixed point exceeds ``cap - 1`` (a deadline miss),
      the cap is itself a fixed point of the capped update (Knaster-
      Tarski: the capped map is monotone on the finite lattice
      ``[0, cap]`` and has no fixed point below the cap, because that
      would be a fixed point of ``f`` below the least one), so missing
      positions freeze at the cap instead of growing without bound.

    When every intermediate provably stays below 2**52 the loop runs in
    float64 — conversion of int64 values below 2**53 is exact, sums and
    products of such integers stay exact, and the floored quotient is
    correctly rounded because the true ratio is at least ``1/T`` away
    from the nearest wrong integer while the division error is at most
    ``(num/T) * 2**-53 < 1/T`` for ``num < 2**53``.  SIMD float
    arithmetic makes the hot divide several times cheaper than int64.

    Rows whose every position went stable are *final* (each position
    sits on its fixed point or its cap) and are banked out of the
    iteration, so stragglers iterate over ever smaller arrays.

    Inputs may be int64 or float64; float64 inputs must hold exact
    integers below 2**52 (the packing engine keeps its state in float64
    to skip per-call conversions).  Returns the (rows, P) fixed points
    in the dtype the loop ran in — always exact integer values; a
    position missed iff its value equals ``cap`` (i.e. exceeds the
    limit the caller encoded).

    With ``decide=True`` the caller only needs the *verdict* per row
    (does any valid position exceed ``cap - 1``?), not exact fixed
    points, and two sound shortcuts apply:

    * prefix-point prepass — ``f(D) <= D`` (one application at the
      deadline) proves the least fixed point is ``<= D`` (Knaster-
      Tarski: any prefix point bounds the least fixed point), so rows
      whose every valid position passes are final immediately; they
      return their start values, which remain true lower bounds of the
      fixed points and sit below the caps;
    * fail-fast — iterates from below never exceed the least fixed
      point, so the moment a position hits its cap the row's miss is
      confirmed and the row stops iterating; its other positions
      return whatever (lower-bound) iterate they had reached.

    Decide-mode return values therefore answer ``value == cap`` (a
    certain miss at that position) and row-level admission exactly as
    the full iteration would, while the non-capped values are only
    guaranteed to be lower bounds of the true responses.
    """
    import numpy as np

    is_float = budget.dtype == np.float64
    rows, P = budget.shape
    if rows == 0 or P == 0:
        return np.zeros((rows, P), dtype=budget.dtype)
    r0 = np.minimum(np.maximum(start, budget), cap)
    if coef.shape[2] == 0:
        return r0
    num_max = float(cap.max()) + float(add.max())
    # Bound every accumulator value: budget plus each source's largest
    # possible quotient times its cost (padding sources have cost 0, so
    # their padded periods do not blow the bound up).
    # np.floor(a / b) rather than a // b: float floor-division is a
    # slow two-pass kernel in numpy, and both are exact here.
    row_bound = float(budget.max()) + float(
        ((np.floor(num_max / period) + 1) * source_cost).sum(axis=1).max()
    )
    use_float = num_max < float(1 << 52) and row_bound < float(1 << 52)
    if use_float == is_float:
        r = r0
        budget_w = budget
        coef_w = coef
        cap_w = cap
        period_w = period
        add_w = add
    else:
        # Convert to the loop dtype once (float inputs are exact
        # integers by contract, so int64 round-trips are lossless).
        want = np.float64 if use_float else np.int64
        r = r0.astype(want)
        budget_w = budget.astype(want)
        coef_w = coef.astype(want)
        cap_w = cap.astype(want)
        period_w = period.astype(want)
        add_w = add.astype(want)
    t_q = period_w[:, None, :]
    add_q = add_w[:, None, :]
    if use_float:
        # Utilization-based warm start (a la Sjödin–Hansson): at the
        # fixed point ``R = budget + sum ceil((R+J)/T_q) coef_q``, each
        # ceil term is at least ``R * coef_q / T_q``, so with S the
        # interference utilization, ``R >= budget / (1 - S)``.  Rounding
        # error in the float evaluation is at most ~1e-12 relative (S is
        # capped at 0.999, keeping the denominator away from zero), so
        # shrinking by 1e-9 before flooring keeps it a true lower bound.
        s_util = np.einsum("rpq,rq->rp", coef_w, 1.0 / period_w)
        boost = np.where(
            s_util <= 0.999,
            np.floor(
                budget_w / np.maximum(1.0 - s_util, 1e-3) * (1.0 - 1e-9)
            ),
            0.0,
        )
        np.maximum(r, boost, out=r)
        np.minimum(r, cap_w, out=r)
    out = np.empty((rows, P), dtype=r.dtype)
    idx = None  # None = no row banked yet; else full-array indices of `r`
    # Ping-pong work buffers: `num` holds the (rows, P, K) quotients in
    # place, `acc`/`r` swap roles each iteration — the loop allocates
    # nothing per pass.
    r = np.ascontiguousarray(r)
    num = np.empty(coef_w.shape, dtype=r.dtype)
    acc = np.empty_like(r)

    def _apply(src, dst):
        # One capped update dst = min(f(src), cap), reusing `num`.
        np.add(src[:, :, None], add_q, out=num)
        # float //  is much slower than floor(a/b) in numpy; int64 //
        # is a single fused pass.  Both are exact here.
        if use_float:
            np.divide(num, t_q, out=num)
            np.floor(num, out=num)
        else:
            np.floor_divide(num, t_q, out=num)
        np.einsum("rpq,rpq->rp", num, coef_w, out=dst)
        np.add(dst, budget_w, out=dst)
        np.minimum(dst, cap_w, out=dst)

    if decide:
        # Prefix-point prepass: one capped application at each
        # position's deadline D = cap - 1.  Since cap = D + 1 > D, the
        # cap cannot pull a value above D down to D or below, so
        # ``acc <= D`` holds iff ``f(D) <= D``.  Passing positions are
        # schedulable without iteration; padding positions (cap 0)
        # pass vacuously.
        stats.vector_iterations += 1
        limit = cap_w - 1
        _apply(limit, acc)
        done = ((acc <= limit) | (cap_w == 0)).all(axis=1)
        # A start value pinned at its cap is a certain miss (start
        # never exceeds the least fixed point): decided, no iteration.
        done |= ((r == cap_w) & (cap_w > 0)).any(axis=1)
        if done.any():
            idx = np.arange(rows)
            out[idx[done]] = r[done]
            keep = np.flatnonzero(~done)
            if keep.size == 0:
                return out
            idx = idx[keep]
            r = np.ascontiguousarray(r[keep])
            budget_w = budget_w[keep]
            cap_w = cap_w[keep]
            coef_w = coef_w[keep]
            add_q = add_q[keep]
            t_q = t_q[keep]
            num = np.empty(coef_w.shape, dtype=r.dtype)
            acc = np.empty_like(r)

    real_cap = cap_w > 0 if decide else None
    while True:
        # Two applications per convergence check: the capped iterates
        # are monotone non-decreasing, so ``f(f(r)) == f(r)`` iff both
        # are the fixed point, and applying ``f`` at a fixed point is a
        # no-op — checking half as often trades at most one redundant
        # (idempotent) pass per row for half the reduction dispatches.
        stats.vector_iterations += 2
        _apply(r, acc)
        _apply(acc, r)
        changing = (acc != r).any(axis=1)
        if decide:
            # Fail-fast: iterates from below never exceed the least
            # fixed point, so a position pinned at its cap is a certain
            # miss — the row's verdict is decided and it stops here
            # (its other positions keep their lower-bound iterates).
            changing &= ~((r == cap_w) & real_cap).any(axis=1)
        n_changing = int(np.count_nonzero(changing))
        if n_changing == 0:
            break
        if n_changing * 4 <= r.shape[0] * 3:
            if idx is None:
                idx = np.arange(rows)
            # stable rows are final; changing ones rewritten later
            out[idx] = r
            keep = np.flatnonzero(changing)
            idx = idx[keep]
            r = r[keep]
            budget_w = budget_w[keep]
            cap_w = cap_w[keep]
            coef_w = coef_w[keep]
            add_q = add_q[keep]
            t_q = t_q[keep]
            num = np.empty(coef_w.shape, dtype=r.dtype)
            acc = np.empty_like(r)
            if decide:
                real_cap = cap_w > 0
    if idx is None:
        return r
    out[idx] = r
    return out


def batch_rta_responses(
    wcet,
    period,
    deadline,
    jitter=None,
    stats: Optional[BatchStats] = None,
) -> np.ndarray:
    """Exact response times for whole cores, all lanes at once.

    Inputs are (lanes, positions) arrays in local priority order
    (position 0 = highest); a zero WCET marks an unused (padding)
    position.  Returns int64 responses with ``-1`` where the entry
    misses its deadline and ``0`` on padding positions — every non-
    sentinel value is the identical integer
    :func:`repro.analysis.rta.response_time` computes for that entry.
    """
    import numpy as np

    stats = stats if stats is not None else BATCH_STATS
    budget = np.ascontiguousarray(wcet, dtype=np.int64)
    if budget.size == 0:
        return np.zeros_like(budget)
    period_arr = np.ascontiguousarray(period, dtype=np.int64)
    limit = np.ascontiguousarray(deadline, dtype=np.int64)
    if jitter is None:
        jitter_arr = None
    else:
        jitter_arr = np.ascontiguousarray(jitter, dtype=np.int64)
    rel = budget > 0
    stats.probes_rta += int(rel.any(axis=1).sum())
    # Padding periods may be 0; substitute 1 (their budget contribution
    # is 0, so the quotient is never read).
    safe_period = np.where(period_arr > 0, period_arr, 1)
    n = budget.shape[1]
    cmask = np.where(rel, budget, 0)
    # Position p is interfered by every live source of strictly higher
    # priority (lower column index).
    coef = cmask[:, None, :] * _lower_triangle(n)[None, :, :]
    coef *= rel[:, :, None]
    add = (
        safe_period - 1
        if jitter_arr is None
        else jitter_arr + safe_period - 1
    )
    r = _fixed_point(
        budget=cmask,
        coef=coef,
        period=safe_period,
        add=add,
        cap=np.where(rel, limit + 1, 0),
        start=cmask,
        source_cost=cmask,
        stats=stats,
    )
    # The loop may run (exactly) in float64; normalize to the int64 API.
    r = r.astype(np.int64, copy=False)
    missed = rel & (r > limit)
    out = np.where(rel, r, 0)
    out[missed] = -1
    return out


def _busy_period_rows(
    cmask: np.ndarray, period: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Synchronous busy-period length per row (masked triples); returns
    ``(length, converged)`` — non-converged rows (effective utilization
    above 1, or runaway growth) must fall back to the scalar test."""
    import numpy as np

    length = cmask.sum(axis=1)
    active = length > 0
    for _ in range(256):
        if not active.any():
            break
        demand = ((-(-length[:, None] // period)) * cmask).sum(axis=1)
        conv = active & (demand == length)
        length = np.where(active, demand, length)
        active &= ~conv
        active &= length < (1 << 62)
    return length, ~active


def _edf_demand_rows(
    cmask: np.ndarray,
    period: np.ndarray,
    deadline: np.ndarray,
    stats: BatchStats,
) -> np.ndarray:
    """Exact processor-demand verdict for each row's masked triples.

    All rows share one deduplicated checkpoint grid (the union of every
    row's deadline lattice up to its busy-period bound).  The grid being
    a superset of a row's own lattice cannot change the exact verdict:
    a schedulable row satisfies ``dbf(t) <= t`` everywhere, and an
    unschedulable row's violation is already visible at its own lattice
    point at or below the violating instant.  Rows the grid cannot
    cover affordably are answered by the scalar test instead.
    """
    import numpy as np

    from repro.analysis.edf import edf_schedulable

    rows, n = cmask.shape
    ok = np.ones(rows, dtype=bool)
    limit, converged = _busy_period_rows(cmask, period)

    def scalar_row(row: int) -> bool:
        stats.scalar_fallbacks += 1
        triples = [
            (int(cmask[row, col]), int(period[row, col]),
             int(deadline[row, col]))
            for col in range(n)
            if cmask[row, col] > 0
        ]
        return edf_schedulable(triples)

    points: List[np.ndarray] = []
    grid_rows = []
    per_row_cap = MAX_DEMAND_CELLS // max(1, rows)
    for row in range(rows):
        if not converged[row]:
            ok[row] = scalar_row(row)
            continue
        bound = int(limit[row])
        row_points = 0
        for col in range(n):
            if cmask[row, col] > 0 and deadline[row, col] <= bound:
                row_points += (
                    (bound - int(deadline[row, col]))
                    // int(period[row, col])
                    + 1
                )
        if row_points > per_row_cap:
            ok[row] = scalar_row(row)
            continue
        for col in range(n):
            if cmask[row, col] > 0 and deadline[row, col] <= bound:
                points.append(
                    np.arange(
                        int(deadline[row, col]),
                        bound + 1,
                        int(period[row, col]),
                        dtype=np.int64,
                    )
                )
        grid_rows.append(row)
    if not grid_rows:
        return ok
    grid = np.unique(np.concatenate(points)) if points else np.empty(
        0, dtype=np.int64
    )
    if grid.size == 0:
        return ok
    if grid.size * len(grid_rows) > MAX_DEMAND_CELLS:
        for row in grid_rows:
            ok[row] = scalar_row(row)
        return ok
    sel = np.asarray(grid_rows, dtype=np.int64)
    dbf = np.zeros((sel.size, grid.size), dtype=np.int64)
    for col in range(n):
        c = cmask[sel, col][:, None]
        d = deadline[sel, col][:, None]
        t = period[sel, col][:, None]
        dbf += np.where(
            (c > 0) & (grid[None, :] >= d),
            ((grid[None, :] - d) // np.where(t > 0, t, 1) + 1) * c,
            0,
        )
    in_range = grid[None, :] <= limit[sel][:, None]
    violated = ((dbf > grid[None, :]) & in_range).any(axis=1)
    ok[sel] = ~violated
    return ok




_PLACEMENT_CODE = {name: code for code, name in enumerate(PLACEMENTS)}
_FIRST_FIT, _NEXT_FIT, _BEST_FIT, _WORST_FIT = (
    _PLACEMENT_CODE["first-fit"],
    _PLACEMENT_CODE["next-fit"],
    _PLACEMENT_CODE["best-fit"],
    _PLACEMENT_CODE["worst-fit"],
)


def batch_partition_accept_multi(
    population: TaskSetPopulation,
    n_cores: int,
    model: OverheadModel = OverheadModel.zero(),
    configs: Sequence[Tuple[str, str]] = (("first-fit", "rta"),),
    stats: Optional[BatchStats] = None,
) -> np.ndarray:
    """Accept/reject matrix — one row per ``(placement, admission)``
    config, one column per lane — of the decreasing-utilization bin-
    packing heuristics over every lane of ``population`` at once.

    ``placement`` is one of :data:`PLACEMENTS`; ``admission`` is
    ``"rta"`` (exact per-core response-time analysis, the FFD/WFD/BFD/
    NFD semantics) or ``"edf"`` (exact processor-demand admission, the
    P-EDF semantics).

    All configs advance through the packing steps together: the
    (config, lane) pairs are flattened into one row axis, so every
    step issues a *single* batched RTA fixed-point call covering every
    algorithm's probes at once (the per-call fixed cost of the
    vectorized iteration is paid once per step, not once per step per
    algorithm).  Placement and admission semantics are applied per row
    group.  Verdicts are bit-identical to running the scalar
    ``partition_taskset`` pipeline — including WCET inflation, the
    decreasing-``(utilization, name)`` placement order, the commit-
    order float utilization accumulation, and every admission epsilon —
    on each lane individually.
    """
    import numpy as np

    configs = [tuple(cfg) for cfg in configs]
    for placement, admission in configs:
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; choose from {PLACEMENTS}"
            )
        if admission not in ("rta", "edf"):
            raise ValueError(f"unknown admission {admission!r}")
    stats = stats if stats is not None else BATCH_STATS
    n_cfg = len(configs)
    lanes = population.n_sets
    verdict = np.zeros((n_cfg, lanes), dtype=bool)
    if lanes == 0 or n_cfg == 0:
        return verdict
    n = population.n_tasks
    period = population.period
    deadline = population.deadline
    memo = population._memo
    static = memo.get("static")
    if static is None:
        # The batch kernel analyzes each core in column (global-priority)
        # order; the scalar analyzer (`order_entries`) sorts by *period*
        # (period ties resolved by priority, i.e. column order).  The two
        # agree exactly when each lane's priority order is period-
        # monotone — a rate-monotonic assignment — which is also what the
        # hyperbolic fast path's soundness argument needs.  Anything
        # else goes scalar.
        rm_ok = n <= 1 or bool(np.all(np.diff(period, axis=1) >= 0))
        # The packing engine keeps timing state in float64 (exact for
        # integers below 2**53; the fixed-point loop proves its own
        # tighter bound).  Populations beyond that range go scalar.
        in_range = not period.size or (
            int(period.max()) < (1 << 52)
            and int(deadline.max()) < (1 << 52)
        )
        static = (
            rm_ok,
            in_range,
            np.all(deadline == period, axis=1),
            _name_ranks(population.names) if rm_ok else None,
            period.astype(np.float64) if rm_ok and in_range else None,
            deadline.astype(np.float64) if rm_ok and in_range else None,
        )
        memo["static"] = static
    rm_ok, in_range, implicit, name_rank, period_f, deadline_f = static
    if not rm_ok:
        raise PopulationError(
            "lane priority order is not rate-monotonic (periods not "
            "non-decreasing with priority rank); batch analysis order "
            "would diverge from the scalar per-core order"
        )
    if not in_range:
        raise PopulationError(
            "timing values at or above 2**52 ns exceed the exact range "
            "of the float64 packing state"
        )
    stats.lanes += n_cfg * lanes
    derived = memo.get("model")
    if derived is None or derived[0] is not model:
        cost = population.inflated_wcet(model)
        if cost.size and int(cost.max()) >= (1 << 52):
            raise PopulationError(
                "inflated budgets at or above 2**52 ns exceed the exact "
                "range of the float64 packing state"
            )
        u = cost / period
        derived = (
            model,
            cost.astype(np.float64),
            u,
            _placement_order(u, name_rank),
            u.sum(axis=1),
            np.prod(1.0 + u, axis=1),
        )
        memo["model"] = derived
    _, cost_f, u, order_full, total, hyprod = derived

    p_code_cfg = np.array(
        [_PLACEMENT_CODE[placement] for placement, _ in configs]
    )
    is_rta_cfg = np.array([admission == "rta" for _, admission in configs])
    eps_cfg = np.where(is_rta_cfg, RTA_UTIL_EPS, EDF_UTIL_EPS)

    # ---- whole-set screens (sound: verdict provably equals scalar) ----
    decided = np.zeros((n_cfg, lanes), dtype=bool)
    if n <= n_cores:
        # Some core always admits each task alone (WCET <= deadline and a
        # single task's utilization cannot trip the fast path), so every
        # heuristic accepts.
        verdict[:] = True
        decided[:] = True
    else:
        # Reject: any accepted lane has per-core commit-order sums each
        # <= 1 + eps, so its pairwise float total cannot exceed
        # m * (1 + eps) by more than accumulated rounding noise.
        decided |= (
            total[None, :]
            > n_cores * (1.0 + eps_cfg[:, None]) + FASTPATH_MARGIN
        )  # verdict stays False
        # Accept (rta): a float hyperbolic product <= 2 - margin means
        # the real product is <= 2, so the *whole set* is RM-schedulable
        # on one core — every probe's subset then passes both the
        # utilization fast path and exact RTA, and any placement finds a
        # home for every task.
        # Accept (edf): real total <= 1 keeps every partial float sum
        # under 1 + eps, so every EDF utilization probe admits.
        whole = implicit[None, :] & np.where(
            is_rta_cfg[:, None],
            hyprod[None, :] <= 2.0 - FASTPATH_MARGIN,
            total[None, :] <= 1.0 - FASTPATH_MARGIN,
        )
        verdict |= whole & ~decided
        decided |= whole
    cfg_idx, lane_idx = np.nonzero(~decided)
    stats.lanes_fastpath += int(decided.sum())
    if cfg_idx.size == 0:
        return verdict

    # ---- struct-of-arrays packing state for the undecided rows -------
    # Every state array is kept *compacted*: the hot per-step
    # expressions run over plain contiguous arrays with no `[alive]`
    # gathers.  Rows whose lane dies are parked as zombies (infinite
    # core utilization fails every screen, so they cost one row of
    # elementwise work and never probe) until enough accumulate to pay
    # for physically compressing all the state; ``orig`` maps compact
    # rows back to original (config, lane) rows.
    n_rows = cfg_idx.size
    orig = np.arange(n_rows)
    cost_t = cost_f[lane_idx]
    period_t = period_f[lane_idx]
    deadline_t = deadline_f[lane_idx]
    u_t = u[lane_idx]
    implicit_t = implicit[lane_idx]
    order = order_full[lane_idx]
    is_rta_t = is_rta_cfg[cfg_idx]
    eps_t = eps_cfg[cfg_idx]
    n_cfgs = p_code_cfg.size

    # Compact rows are config-major: np.nonzero emits row-major order
    # and every compression keeps ascending order, so each config's
    # rows stay one contiguous slice.  Config-specific work (next-fit
    # pointers, placement preference, selection, EDF demand) then runs
    # on zero-copy slice views instead of boolean-mask gathers.
    def _config_groups():
        cfg_t = cfg_idx[orig]
        bounds = np.searchsorted(cfg_t, np.arange(n_cfgs + 1))
        groups = []
        for c in range(n_cfgs):
            s, e = int(bounds[c]), int(bounds[c + 1])
            if s < e:
                groups.append(
                    (s, e, int(p_code_cfg[c]), bool(is_rta_cfg[c]))
                )
        return groups

    groups = _config_groups()
    # All packing state is float64 holding exact integer ns (guarded
    # above): it feeds the float fixed-point loop without conversions.
    member_cost = np.zeros((n_rows, n_cores, n), dtype=np.float64)
    core_util = np.zeros((n_rows, n_cores), dtype=np.float64)
    hyper = np.ones((n_rows, n_cores), dtype=np.float64)
    response_cache = np.zeros((n_rows, n_cores, n), dtype=np.float64)
    pointer = np.zeros(n_rows, dtype=np.int64)
    alive = np.ones(n_rows, dtype=bool)  # over compact rows
    alive_full = np.ones(n_rows, dtype=bool)  # over original rows
    used_vector = np.zeros(n_rows, dtype=bool)  # over original rows
    core_index = np.arange(n_cores)
    n_zombies = 0

    for step in range(n):
        rows = orig.size
        if rows == n_zombies:
            break
        pos = order[:, step]
        cand_u = u_t[np.arange(rows), pos]
        util_ok = core_util + cand_u[:, None] <= 1.0 + eps_t[:, None]
        for s, e, pc, _rta in groups:
            if pc == _NEXT_FIT:
                # next-fit never returns to cores left of its pointer
                util_ok[s:e] &= (
                    core_index[None, :] >= pointer[s:e, None]
                )
        rta_row = is_rta_t
        hyper_ok = (
            util_ok
            & rta_row[:, None]
            & implicit_t[:, None]
            & (hyper * (1.0 + cand_u[:, None]) <= 2.0 - FASTPATH_MARGIN)
        )
        # EDF rows admit on the utilization screen alone (implicit
        # deadlines); constrained rows are corrected by the exact
        # demand test below.
        admit = hyper_ok | (util_ok & ~rta_row[:, None])
        stats.probes_edf += (
            int(np.count_nonzero(~rta_row & alive)) * n_cores
        )

        probe_row = np.full((rows, n_cores), -1, dtype=np.int64)
        probe_r = None
        probe_rel = None
        need = util_ok & ~hyper_ok & rta_row[:, None]
        if need.any():
            # Preference-order cutoff: the step commits the *first*
            # admitting core in placement-preference order (index order
            # for FF/NF, utilization order for BF/WF — exactly how the
            # selection below tie-breaks), and a hyper-admitted core
            # admits without probing.  Probes at preference ranks beyond
            # a row's first hyper-admitted core can never change the
            # selection or the row's survival, so drop them.
            pref = np.tile(core_index, (rows, 1))
            for s, e, pc, _rta in groups:
                if pc == _BEST_FIT or pc == _WORST_FIT:
                    key = (
                        -core_util[s:e]
                        if pc == _BEST_FIT
                        else core_util[s:e]
                    )
                    orderb = np.argsort(key, kind="stable", axis=1)
                    prefb = np.empty_like(orderb)
                    prefb[
                        np.arange(orderb.shape[0])[:, None], orderb
                    ] = core_index
                    pref[s:e] = prefb
            cutoff = np.where(hyper_ok, pref, n_cores).min(axis=1)
            need &= pref < cutoff[:, None]
        if need.any():

            def run_probes(pr_row, pr_core):
                """Batched RTA probe of the (row, core) pairs; returns
                the admit vector and the per-pair response/relevance
                matrices in column space."""
                sel = pr_row
                count = sel.size
                stats.probes_rta += count
                used_vector[orig[sel]] = True
                p_ins = pos[pr_row]
                cmask = member_cost[sel, pr_core]  # fancy index: a copy
                rows_i = np.arange(count)
                cmask[rows_i, p_ins] = cost_t[sel, p_ins]
                member = cmask > 0
                counts = member.sum(axis=1)
                admit_probe = np.empty(count, dtype=bool)
                probe_r = np.zeros((count, n + 1), dtype=np.float64)
                probe_rel = np.zeros((count, n + 1), dtype=bool)

                # Compact each probe row twice.  Sources (the K axis): every
                # member column including the candidate, left-justified in
                # ascending column order — compact index order is exactly
                # per-core priority order.  Positions (the P axis): only the
                # candidate and its lower-priority members need fixed points
                # (higher-priority responses are unchanged by the insertion),
                # so with K = max members and P = max affected positions the
                # fixed-point tensor shrinks from (rows, n, n) to
                # (rows, P, K).  Left-justification is a cumsum-ranked
                # scatter (cheaper than an argsort).
                def probe_bucket(bsel: np.ndarray) -> None:
                    cm = cmask[bsel]
                    mem = member[bsel]
                    cnt = counts[bsel]
                    K = int(cnt.max())
                    bcount = bsel.size
                    rank = np.cumsum(mem, axis=1) - 1
                    rr, cc = np.nonzero(mem)
                    just = np.zeros((bcount, K), dtype=np.int64)
                    just[rr, rank[rr, cc]] = cc
                    valid = np.arange(K)[None, :] < cnt[:, None]
                    bcol = np.arange(bcount)[:, None]
                    lane = sel[bsel][:, None]
                    cost_k = np.where(valid, cm[bcol, just], 0.0)
                    period_k = np.where(valid, period_t[lane, just], 1.0)
                    prefix_k = np.cumsum(cost_k, axis=1)
                    # Relevant positions (the candidate and its lower-
                    # priority members) are a contiguous *suffix* of the
                    # compact source order — `just` ascends within each
                    # row's valid prefix — so suffix arithmetic replaces
                    # a second cumsum/nonzero compaction.  Padding
                    # positions alias the last valid source (their cap
                    # of 0 masks them everywhere downstream).
                    rel_k = valid & (just >= p_ins[bsel][:, None])
                    rcounts = rel_k.sum(axis=1)
                    P = int(rcounts.max())
                    first = cnt - rcounts  # compact index of position 0
                    rjust = np.minimum(
                        first[:, None] + np.arange(P), cnt[:, None] - 1
                    )
                    validp = np.arange(P)[None, :] < rcounts[:, None]
                    cols_p = just[bcol, rjust]  # original column per position
                    budget_p = np.where(validp, cm[bcol, cols_p], 0.0)
                    dead_p = deadline_t[lane, cols_p]
                    # A response is at least the budget plus one job of
                    # every higher-priority member (each ceil term is >= 1),
                    # so the inclusive member-cost prefix sum is a valid
                    # warm-start lower bound alongside the cached committed
                    # responses (a single three-axis gather).
                    cache_p = response_cache[
                        sel[bsel][:, None], pr_core[bsel][:, None], cols_p
                    ]
                    start_p = np.maximum(cache_p, prefix_k[bcol, rjust])
                    # Position at compact source index rjust[p] is
                    # interfered by exactly the sources before it in compact
                    # (priority) order.
                    coef = cost_k[:, None, :] * (
                        np.arange(K)[None, None, :] < rjust[:, :, None]
                    )
                    r_p = _fixed_point(
                        budget=budget_p,
                        coef=coef,
                        period=period_k,
                        add=period_k - 1.0,
                        cap=np.where(validp, dead_p + 1.0, 0.0),
                        start=start_p,
                        source_cost=cost_k,
                        stats=stats,
                        # Probes only need the admit verdict; committed
                        # cache entries stay lower bounds either way.
                        decide=True,
                    )
                    failed = (validp & (r_p > dead_p)).any(axis=1)
                    admit_probe[bsel] = ~failed
                    # Scatter compact responses back to column space for the
                    # commit-phase response-cache update (padding positions
                    # all alias a sentinel column that is sliced off).
                    cols_safe = np.where(validp, cols_p, n)
                    probe_r[bsel[:, None], cols_safe] = r_p
                    probe_rel[bsel[:, None], cols_safe] = validp

                # Bucket probe rows by member count so sparsely filled cores
                # do not pay the padded tensor width of the fullest core in
                # the step (the K axis is a per-bucket maximum).
                k_max = int(counts.max())
                if count > 1024 and k_max > 4:
                    split = (k_max + 1) // 2
                    small = counts <= split
                    for bucket in (np.flatnonzero(small),
                                   np.flatnonzero(~small)):
                        if bucket.size:
                            probe_bucket(bucket)
                else:
                    probe_bucket(rows_i)
                return (
                    admit_probe,
                    probe_r[:, :n],
                    probe_rel[:, :n],
                )

            # Two-wave probing, mirroring the scalar early-exit: wave 1
            # probes only each row's first needing core in preference
            # order — if it admits it is the selection (every lower-
            # preference core already failed the screens), so the row's
            # remaining probes are unnecessary.  Only wave-1 failures
            # probe their remaining needing cores.
            need_pref = np.where(need, pref, n_cores)
            first_core = np.argmin(need_pref, axis=1)
            rows1 = np.flatnonzero(need.any(axis=1))
            core1 = first_core[rows1]
            pieces = [(rows1, core1) + run_probes(rows1, core1)]
            failed1 = rows1[~pieces[0][2]]
            if failed1.size:
                need2 = need[failed1]
                need2[np.arange(failed1.size), first_core[failed1]] = False
                s_row, s_core = np.nonzero(need2)
                if s_row.size:
                    rows2 = failed1[s_row]
                    pieces.append(
                        (rows2, s_core) + run_probes(rows2, s_core)
                    )
            if len(pieces) == 1:
                a_row, a_core, admit_probe, probe_r, probe_rel = pieces[0]
            else:
                a_row = np.concatenate([p[0] for p in pieces])
                a_core = np.concatenate([p[1] for p in pieces])
                admit_probe = np.concatenate([p[2] for p in pieces])
                probe_r = np.vstack([p[3] for p in pieces])
                probe_rel = np.vstack([p[4] for p in pieces])
            admit[a_row, a_core] = admit_probe
            probe_row[a_row, a_core] = np.arange(a_row.size)

        for s, e, pc, rta in groups:
            if rta:
                continue
            con = ~implicit_t[s:e]
            if not con.any():
                continue
            er, ec = np.nonzero(util_ok[s:e] & con[:, None])
            if er.size == 0:
                continue
            sel = er + s
            used_vector[orig[sel]] = True
            cmask = member_cost[sel, ec]  # fancy index: a copy
            rows_i = np.arange(sel.size)
            cmask[rows_i, pos[sel]] = cost_t[sel, pos[sel]]
            # The demand test mixes its own int64 grids in; hand it
            # int64 views (the float state holds exact integers).
            admit[sel, ec] = _edf_demand_rows(
                cmask.astype(np.int64),
                period_t[sel].astype(np.int64),
                deadline_t[sel].astype(np.int64),
                stats,
            )

        # ---- placement selection, per placement group ----------------
        chosen = np.zeros(rows, dtype=np.int64)
        for s, e, pc, _rta in groups:
            if pc == _FIRST_FIT or pc == _NEXT_FIT:
                chosen[s:e] = np.argmax(admit[s:e], axis=1)
            elif pc == _BEST_FIT:
                # max over (utilization, -core): argmax takes the first
                # (lowest-index) maximum, matching the scalar tie-break.
                chosen[s:e] = np.argmax(
                    np.where(admit[s:e], core_util[s:e], -np.inf),
                    axis=1,
                )
            else:
                # min over (utilization, core)
                chosen[s:e] = np.argmin(
                    np.where(admit[s:e], core_util[s:e], np.inf),
                    axis=1,
                )

        any_admit = admit.any(axis=1)
        dead_now = alive & ~any_admit
        ok_rows = np.flatnonzero(any_admit)
        if ok_rows.size:
            core_ok = chosen[ok_rows]
            pos_ok = pos[ok_rows]
            u_ok = cand_u[ok_rows]
            member_cost[ok_rows, core_ok, pos_ok] = cost_t[
                ok_rows, pos_ok
            ]
            core_util[ok_rows, core_ok] += u_ok
            hyper[ok_rows, core_ok] *= 1.0 + u_ok  # unread for EDF rows
            if probe_r is not None:
                src = probe_row[ok_rows, core_ok]
                have = np.flatnonzero(src >= 0)
                if have.size:
                    src_h = src[have]
                    sel_h = ok_rows[have]
                    core_h = core_ok[have]
                    cached = response_cache[sel_h, core_h]
                    response_cache[sel_h, core_h] = np.where(
                        probe_rel[src_h], probe_r[src_h], cached
                    )
            pointer[ok_rows] = core_ok  # unread for non-next-fit rows
        if dead_now.any():
            alive &= any_admit
            alive_full[orig[dead_now]] = False
            # Zombie parking: an infinite utilization fails the
            # capacity screen on every core, so the row never admits,
            # probes, or commits again.
            core_util[dead_now] = np.inf
            n_zombies = rows - int(np.count_nonzero(alive))
            if n_zombies * 4 >= rows:
                keep = np.flatnonzero(alive)
                orig = orig[keep]
                cost_t = cost_t[keep]
                period_t = period_t[keep]
                deadline_t = deadline_t[keep]
                u_t = u_t[keep]
                implicit_t = implicit_t[keep]
                order = order[keep]
                is_rta_t = is_rta_t[keep]
                eps_t = eps_t[keep]
                member_cost = member_cost[keep]
                core_util = core_util[keep]
                hyper = hyper[keep]
                response_cache = response_cache[keep]
                pointer = pointer[keep]
                alive = np.ones(keep.size, dtype=bool)
                n_zombies = 0
                groups = _config_groups()

    verdict[cfg_idx[alive_full], lane_idx[alive_full]] = True
    stats.lanes_fastpath += int((~used_vector).sum())
    return verdict

