"""Incremental analysis engine: oracle agreement, probe dedup, leak fixes.

Four concerns:

* the incremental :class:`~repro.analysis.incremental.CoreAnalysisContext`
  must agree with the untouched from-scratch analysis
  (:func:`repro.analysis.rta.core_schedulable`) on every per-entry
  response time and admission verdict, including ``tick_ns > 0``;
* all partitioners must produce **bit-identical** assignments on the
  plain contexts and under
  :func:`~repro.analysis.incremental.oracle_contexts` (every probe
  answered cold by ``repro.analysis.rta`` / ``repro.analysis.edf``)
  across a seeded utilization grid;
* ``probe_budget`` must evaluate each candidate budget at most once — the
  from-scratch helpers it replaced probed the lower bound twice;
* a failed ``try_split`` must leave the splitter exactly as if the
  attempt never happened — ``body_rank`` used to leak.

Tests parametrized over ``fast`` run once on the plain contexts
(``True``) and once under ``oracle_contexts()`` (``False``).
"""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.analysis import STATS, AnalysisStats, make_edf_context, make_rta_context
from repro.analysis import rta
from repro.analysis.incremental import (
    CoreAnalysisContext,
    EdfCoreContext,
    oracle_contexts,
)
from repro.analysis.oracle import OracleEdfContext, OracleRtaContext
from repro.analysis.rta import core_schedulable
from repro.experiments.algorithms import build_assignment
from repro.model.assignment import Entry, EntryKind
from repro.model.generator import TaskSetGenerator
from repro.model.split import Subtask
from repro.model.task import Task
from repro.model.time import MS
from repro.overhead.model import OverheadModel
from repro.semipart.cd_split import CdSplitConfig, _CdSplitter
from repro.semipart.fpts import FptsConfig, _Splitter
from repro.verify import assignment_to_canonical


def _scope(fast: bool):
    """The plain contexts (``fast``) or the oracle adapters."""
    return contextlib.nullcontext() if fast else oracle_contexts()


def _normal_entry(task: Task, core: int = 0) -> Entry:
    return Entry(
        kind=EntryKind.NORMAL,
        task=task,
        core=core,
        budget=task.wcet,
        deadline=task.deadline,
    )


# ---------------------------------------------------------------------------
# Incremental context vs the from-scratch per-entry oracle
# ---------------------------------------------------------------------------


@pytest.mark.fuzz
@pytest.mark.parametrize("tick_ns", [0, 100_000])
def test_context_matches_rta_oracle(tick_ns):
    """Probe/commit through the plain context and the oracle adapter;
    every admission verdict and every final response time must match
    ``core_schedulable``."""
    for trial in range(20):
        rng = random.Random(4200 + trial)
        taskset = TaskSetGenerator(
            n_tasks=rng.randint(3, 8),
            seed=rng.randint(0, 10**6),
            period_min=5 * MS,
            period_max=100 * MS,
        ).generate(rng.uniform(0.5, 0.95))
        taskset = taskset.assign_rate_monotonic()

        incremental = make_rta_context(tick_ns=tick_ns)
        with oracle_contexts():
            reference = make_rta_context(tick_ns=tick_ns)
        accepted = []
        for task in taskset:
            entry = _normal_entry(task)
            r_inc = incremental.probe(entry)
            r_scr = reference.probe(entry)
            assert (r_inc is None) == (r_scr is None), (
                f"trial {trial}: verdict diverged for {task.name}"
            )
            if r_inc is None:
                continue
            assert r_inc == r_scr
            incremental.commit(entry)
            reference.install(entry)
            accepted.append(entry)

        oracle = core_schedulable(accepted, tick_ns=tick_ns)
        assert oracle.schedulable
        for entry, response in incremental.responses():
            assert response == oracle.response_of(entry.name), (
                f"trial {trial}: response diverged for {entry.name}"
            )
        for entry, response in reference.responses():
            assert response == oracle.response_of(entry.name)


# ---------------------------------------------------------------------------
# Partitioners: incremental == oracle, bit-identical, across a grid
# ---------------------------------------------------------------------------

_GRID_ALGORITHMS = ("FP-TS", "PDMS", "C=D", "SPA2", "FFD", "WFD", "P-EDF")


@pytest.mark.fuzz
def test_partitioners_incremental_equals_oracle_on_grid():
    """>= 20 seeded task sets across the utilization grid: every
    partitioner must accept/reject identically and produce bit-identical
    assignments on the plain contexts and under ``oracle_contexts()``."""
    grid = [0.55 + 0.02 * i for i in range(22)]  # 0.55 .. 0.97 per core
    for i, normalized in enumerate(grid):
        n_cores = 2 if i % 2 == 0 else 4
        model = (
            OverheadModel.zero()
            if i % 3 == 0
            else OverheadModel.paper_core_i7(n_cores)
        )
        taskset = TaskSetGenerator(
            n_tasks=6 + (i % 5),
            seed=1000 + 7919 * i,
            period_min=5 * MS,
            period_max=100 * MS,
        ).generate(normalized * n_cores)
        taskset = taskset.assign_rate_monotonic()
        for algorithm in _GRID_ALGORITHMS:
            fast = build_assignment(algorithm, taskset, n_cores, model)
            with oracle_contexts():
                reference = build_assignment(
                    algorithm, taskset, n_cores, model
                )
            assert assignment_to_canonical(fast) == assignment_to_canonical(
                reference
            ), f"grid point {i} (U={normalized:.2f}): {algorithm} diverged"


# ---------------------------------------------------------------------------
# probe_budget: each candidate budget evaluated at most once
# ---------------------------------------------------------------------------


def _spy_probe(ctx, seen):
    original = ctx.probe

    def probe(entry, warm=None):
        seen.append(entry.budget)
        return original(entry, warm=warm)

    ctx.probe = probe


@pytest.mark.parametrize("fast", [True, False])
def test_rta_probe_budget_probes_each_budget_once(fast):
    stats = AnalysisStats()
    with _scope(fast):
        ctx = make_rta_context(stats=stats)
    resident = Task("r", wcet=5 * MS, period=10 * MS).with_priority(0)
    ctx.install(_normal_entry(resident))

    task = Task("s", wcet=9 * MS, period=10 * MS).with_priority(1)
    seen = []
    _spy_probe(ctx, seen)

    def build(b):
        return Entry(
            kind=EntryKind.BODY,
            task=task,
            core=0,
            budget=b,
            subtask=Subtask(
                task=task, index=0, core=0, budget=b, total_subtasks=2
            ),
            deadline=b,
            body_rank=0,
        )

    best, response = ctx.probe_budget(1, 9 * MS - 1, build)
    # Resident leaves 5 ms spare and the body runs at top priority with
    # deadline == budget, so the largest feasible budget is exactly 5 ms.
    assert best == 5 * MS
    assert response == 5 * MS
    assert len(seen) == len(set(seen)), f"duplicate probes: {seen}"
    assert seen[0] == 1 and seen.count(1) == 1  # lo probed exactly once
    assert stats.probes == len(seen)
    assert stats.budget_searches == 1


@pytest.mark.parametrize("fast", [True, False])
def test_edf_probe_budget_probes_each_budget_once(fast):
    stats = AnalysisStats()
    with _scope(fast):
        ctx = make_edf_context(stats=stats)
    resident = Task("r", wcet=5 * MS, period=10 * MS).with_priority(0)
    ctx.install(_normal_entry(resident))

    task = Task("s", wcet=9 * MS, period=10 * MS).with_priority(1)
    seen = []
    _spy_probe(ctx, seen)

    def build(c):
        return Entry(
            kind=EntryKind.BODY,
            task=task,
            core=0,
            budget=c,
            subtask=Subtask(
                task=task, index=0, core=0, budget=c, total_subtasks=2
            ),
            deadline=c,  # C=D chunk
            body_rank=0,
        )

    best, verdict = ctx.probe_budget(1, 9 * MS - 1, build)
    assert best == 5 * MS  # dbf at t=10ms: c + 5ms <= 10ms
    assert verdict == 1
    assert len(seen) == len(set(seen)), f"duplicate probes: {seen}"
    assert seen[0] == 1 and seen.count(1) == 1
    assert stats.probes == len(seen)


def test_fpts_max_body_budget_no_duplicate_probe():
    """The satellite bug: ``_max_body_budget`` used to run RTA on the
    minimum chunk twice (feasibility check, then again for the response)."""
    splitter = _Splitter(1, FptsConfig(min_chunk=1))
    ctx = splitter.contexts[0]
    ctx.install(_normal_entry(Task("r", wcet=5, period=10).with_priority(0)))
    seen = []
    _spy_probe(ctx, seen)
    task = Task("s", wcet=9, period=10).with_priority(1)
    budget, response = splitter._max_body_budget(
        task, core=0, index=0, rank=0, remaining=9, cumulative_bound=0
    )
    assert budget == 5 and response == 5
    assert len(seen) == len(set(seen)), f"duplicate probes: {seen}"
    assert seen.count(1) == 1


def test_cd_split_max_chunk_no_duplicate_probe():
    splitter = _CdSplitter(1, CdSplitConfig(min_chunk=1))
    ctx = splitter.contexts[0]
    ctx.install(_normal_entry(Task("r", wcet=5, period=10).with_priority(0)))
    seen = []
    _spy_probe(ctx, seen)
    task = Task("s", wcet=9, period=10).with_priority(1)
    chunk = splitter._max_chunk(
        task, core=0, index=0, rank=0, remaining=9, consumed_deadline=0
    )
    assert chunk == 5
    assert len(seen) == len(set(seen)), f"duplicate probes: {seen}"
    assert seen.count(1) == 1


# ---------------------------------------------------------------------------
# try_split state leak: a failed attempt must be a perfect no-op
# ---------------------------------------------------------------------------


def _context_state(ctx):
    state = {
        "entries": list(ctx.entries),
        "utilization": ctx.utilization,
    }
    for attr in ("_keys", "_triples", "_responses"):
        if hasattr(ctx, attr):
            state[attr] = list(getattr(ctx, attr))
    return state


@pytest.mark.parametrize("fast", [True, False])
def test_fpts_failed_split_leaves_splitter_untouched(fast):
    """Bodies are provisionally placed on both cores before the attempt
    runs out of cores; the failure must roll everything back —
    ``body_rank`` used to stay advanced (the state-leak bug)."""
    with _scope(fast):
        splitter = _Splitter(2, FptsConfig(min_chunk=1))
    # wcet 6 of 10: first-fit puts exactly one resident per core.
    assert splitter.try_whole(Task("a", wcet=6, period=10).with_priority(0))
    assert splitter.try_whole(Task("b", wcet=6, period=10).with_priority(1))
    before_rank = splitter.body_rank
    before = [_context_state(ctx) for ctx in splitter.contexts]

    stats_before = STATS.snapshot()
    ok = splitter.try_split(Task("c", wcet=9, period=10).with_priority(2))
    assert not ok
    # The attempt really did place provisional bodies (it probed budgets
    # on both cores), so the rollback below is meaningful.
    assert STATS.snapshot()["budget_searches"] >= stats_before["budget_searches"] + 2

    assert splitter.body_rank == before_rank
    assert splitter.splits == []
    for ctx, snap in zip(splitter.contexts, before):
        assert _context_state(ctx) == snap


@pytest.mark.parametrize("fast", [True, False])
def test_cd_split_failed_split_leaves_splitter_untouched(fast):
    with _scope(fast):
        splitter = _CdSplitter(2, CdSplitConfig(min_chunk=1))
    assert splitter.try_whole(Task("a", wcet=6, period=10).with_priority(0))
    assert splitter.try_whole(Task("b", wcet=6, period=10).with_priority(1))
    before_rank = splitter.body_rank
    before = [_context_state(ctx) for ctx in splitter.contexts]

    ok = splitter.try_split(Task("c", wcet=9, period=10).with_priority(2))
    assert not ok

    assert splitter.body_rank == before_rank
    assert splitter.splits == []
    for ctx, snap in zip(splitter.contexts, before):
        assert _context_state(ctx) == snap


def test_fpts_partition_unaffected_by_prior_failed_split():
    """End-to-end: rejecting one task set must not perturb a subsequent
    partition run through the same splitter-visible state (fresh
    splitters each call — this pins the *absence* of cross-run leaks by
    comparing against a never-failed control run)."""
    hard = (
        TaskSetGenerator(n_tasks=9, seed=77, period_min=5 * MS, period_max=50 * MS)
        .generate(3.9)
        .assign_rate_monotonic()
    )
    easy = (
        TaskSetGenerator(n_tasks=6, seed=78, period_min=5 * MS, period_max=50 * MS)
        .generate(2.2)
        .assign_rate_monotonic()
    )
    control = build_assignment("FP-TS", easy, 4)
    build_assignment("FP-TS", hard, 4)  # may well be rejected
    after = build_assignment("FP-TS", easy, 4)
    assert assignment_to_canonical(after) == assignment_to_canonical(control)


# ---------------------------------------------------------------------------
# Work counters: the incremental engine must actually do less work
# ---------------------------------------------------------------------------


def test_incremental_does_fewer_fixpoint_iterations(monkeypatch):
    taskset = (
        TaskSetGenerator(
            n_tasks=12, seed=5, period_min=5 * MS, period_max=100 * MS
        )
        .generate(3.2)
        .assign_rate_monotonic()
    )
    STATS.reset()
    fast = build_assignment("FP-TS", taskset, 4)
    inc = STATS.snapshot()
    # The oracle's fixed points are rta.response_time, which walks its
    # interferer sequence once per iteration: count those walks.
    cold_iterations = 0

    class CountingInterferers(list):
        def __iter__(self):
            nonlocal cold_iterations
            cold_iterations += 1
            return super().__iter__()

    original = rta.response_time
    monkeypatch.setattr(
        rta,
        "response_time",
        lambda budget, higher, limit: original(
            budget, CountingInterferers(higher), limit
        ),
    )
    STATS.reset()
    with oracle_contexts():
        reference = build_assignment("FP-TS", taskset, 4)
    ref = STATS.snapshot()
    STATS.reset()
    assert assignment_to_canonical(fast) == assignment_to_canonical(reference)
    assert inc["probes"] == ref["probes"]  # same algorithm, same questions
    assert inc["fixpoint_iterations"] < cold_iterations


def test_oracle_contexts_scope_reverts():
    """The seam only holds inside its ``with`` block, also on error."""
    with oracle_contexts():
        assert isinstance(make_rta_context(), OracleRtaContext)
        assert isinstance(make_edf_context(), OracleEdfContext)
    assert isinstance(make_rta_context(), CoreAnalysisContext)
    assert isinstance(make_edf_context(), EdfCoreContext)
    with pytest.raises(RuntimeError):
        with oracle_contexts():
            raise RuntimeError("boom")
    assert isinstance(make_rta_context(), CoreAnalysisContext)
    assert isinstance(make_edf_context(), EdfCoreContext)


def test_record_analysis_stats_publishes_ana_counters():
    from repro.metrics import MetricsRegistry, record_analysis_stats

    stats = AnalysisStats()
    ctx = make_rta_context(stats=stats)
    entry = _normal_entry(Task("a", wcet=3, period=10).with_priority(0))
    assert ctx.probe(entry) is not None
    ctx.commit(entry)

    registry = MetricsRegistry()
    record_analysis_stats(registry, stats, mode="incremental")
    assert registry.value("ana_rta_probes_total", mode="incremental") == stats.probes
    assert (
        registry.value("ana_fixpoint_iterations_total", mode="incremental")
        == stats.fixpoint_iterations
    )
    assert registry.value("ana_budget_searches_total", mode="incremental") == 0
    assert registry.value("ana_edf_tests_total", mode="incremental") == 0
