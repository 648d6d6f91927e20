"""Exact schedulability oracle by exhaustive simulation.

For *synchronous periodic* task sets with constrained deadlines under
preemptive fixed-priority uniprocessor scheduling, the critical instant
theorem (Liu & Layland) makes the synchronous release the worst case, and
simulating one worst-case response window per task decides schedulability
exactly.  This oracle cross-checks the analytical RTA in the property
tests: *the two must agree on every input*.

The oracle is deliberately independent of the kernel simulator (a simple
time-demand sweep over the deadlines of the first job of each task), so a
bug would have to appear in two unrelated implementations to slip through.

:class:`OracleRtaContext` / :class:`OracleEdfContext` are the analysis-
context API of :mod:`repro.analysis.incremental` with no caching at all:
every probe re-orders the core and asks :func:`repro.analysis.rta.
response_time` (or :func:`repro.analysis.edf.edf_schedulable`) about
every entry, cold.  ``with oracle_contexts():`` makes the partitioners
build these, so a whole partitioner run can be checked against the
untouched per-core analyses.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

from repro.analysis import edf, rta
from repro.analysis.incremental import STATS, AnalysisStats, _BudgetSearchMixin
from repro.model.assignment import Entry

# (wcet, period, deadline) with index position = priority (0 highest).
FpTask = Tuple[int, int, int]


def first_job_response(
    tasks: Sequence[FpTask], index: int, horizon: int
) -> int:
    """Finish time of task ``index``'s first job under synchronous release.

    Sweeps completed higher-priority demand: the first job of task ``i``
    finishes at the earliest ``t`` with
    ``t = C_i + sum_{j < i} ceil(t / T_j) C_j`` — identical in *meaning* to
    RTA but computed by forward demand sweep rather than fixed-point
    iteration on the response time.

    Returns a value > horizon if it does not finish by ``horizon``.
    """
    wcet = tasks[index][0]
    t = wcet
    while t <= horizon:
        demand = wcet
        for j in range(index):
            c, period, _d = tasks[j]
            demand += -(-t // period) * c
        if demand == t:
            return t
        t = demand
    return horizon + 1


def fp_schedulable_oracle(tasks: Sequence[FpTask]) -> bool:
    """Exact synchronous-periodic FP schedulability (constrained deadlines).

    >>> fp_schedulable_oracle([(4, 8, 8), (4, 16, 16), (8, 32, 32)])
    True
    >>> fp_schedulable_oracle([(5, 8, 8), (7, 16, 16)])
    False
    """
    for index, (_c, _t, deadline) in enumerate(tasks):
        if first_job_response(tasks, index, deadline) > deadline:
            return False
    return True


def fp_response_times_oracle(tasks: Sequence[FpTask]) -> List[int]:
    """First-job finish times (== worst-case responses when schedulable)."""
    responses = []
    for index, (_c, _t, deadline) in enumerate(tasks):
        responses.append(first_job_response(tasks, index, deadline))
    return responses


class _OracleContext(_BudgetSearchMixin):
    """Resident list plus the probe/commit protocol; subclasses supply
    ``_verdict(entries, candidate)`` (a response, or ``None`` to reject)."""

    def __init__(self, stats: Optional[AnalysisStats]) -> None:
        self.stats = stats if stats is not None else STATS
        self.entries: List[Entry] = []
        self.utilization = 0.0
        self._last: Optional[Tuple[Entry, int]] = None  # last admitted probe

    def prepare(self, candidate: Entry) -> None:
        return None

    def probe(self, candidate: Entry, warm=None, pre=None) -> Optional[int]:
        self.stats.probes += 1
        response = self._verdict(self.entries + [candidate], candidate)
        self._last = None if response is None else (candidate, response)
        return response

    def commit(self, candidate: Entry) -> int:
        if self._last is None or self._last[0] is not candidate:
            if self.probe(candidate) is None:
                raise ValueError(
                    f"commit of infeasible candidate {candidate.name}"
                )
        response = self._last[1]
        self.install(candidate)
        return response

    def install(self, entry: Entry, response: Optional[int] = None) -> None:
        self.entries.append(entry)
        self.utilization += entry.utilization
        self._last = None

    def remove(self, entry: Entry) -> None:
        self.entries.remove(entry)
        self.utilization -= entry.utilization
        self._last = None

    def clone(self):
        twin = copy.copy(self)
        twin.entries = list(self.entries)
        twin._last = None
        return twin


class OracleRtaContext(_OracleContext):
    """RTA context answered by :func:`repro.analysis.rta.response_time`."""

    def __init__(self, budget_fn, tick_ns: int, stats) -> None:
        super().__init__(stats)
        self.budget_fn = budget_fn or (lambda entry: entry.budget)
        self.tick_ns = tick_ns

    def _walk(self, entries: List[Entry]):
        """``(entry, response)`` in local priority order, cold RTA each."""
        higher: List[Tuple[int, int, int]] = []
        for entry in rta.order_entries(entries):
            budget = self.budget_fn(entry)
            limit = entry.deadline - self.tick_ns
            yield entry, rta.response_time(budget, higher, limit)
            higher.append((budget, entry.period, entry.jitter + self.tick_ns))

    def responses(self) -> List[Tuple[Entry, Optional[int]]]:
        return list(self._walk(self.entries))

    def _verdict(self, entries, candidate) -> Optional[int]:
        found = None
        for entry, response in self._walk(entries):
            if response is None:
                return None
            if entry is candidate:
                found = response
        return found


class OracleEdfContext(_OracleContext):
    """Demand-bound context answered by
    :func:`repro.analysis.edf.edf_schedulable`."""

    def __init__(self, triple_fn, precheck_cd: bool, stats) -> None:
        super().__init__(stats)
        self.triple_fn = triple_fn
        self.precheck_cd = precheck_cd

    def _verdict(self, entries, candidate) -> Optional[int]:
        triples = [self.triple_fn(entry) for entry in entries]
        if self.precheck_cd and any(c > d for c, _t, d in triples):
            return None
        self.stats.edf_tests += 1
        return 1 if edf.edf_schedulable(triples) else None
