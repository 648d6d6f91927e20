"""Kernel ops chained inside one event stay observable one by one.

:class:`~repro.kernel.sim.KernelSim` runs a kernel op's end in the
current event when the event queue proves nothing else can fire first
(docs/simulator.md, "Event ordering at equal timestamps").  These tests
pin what that must not change:

* the same-instant tie family of the ``legacy-vs-plugin`` pair matches
  the frozen one-event-per-op simulator entry for entry, and covers its
  corner cases (zero-length ops, an op ending exactly at the horizon,
  one ending past it);
* profiling and metrics still count and time every op, chained or not;
* observation never perturbs a paper-overhead run.
"""

from __future__ import annotations

import pytest

from repro.experiments.algorithms import build_assignment
from repro.kernel.legacy import LegacyKernelSim
from repro.kernel.sim import KernelSim
from repro.metrics import MetricsRegistry
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.overhead.model import OverheadModel
from repro.verify import result_to_canonical
from repro.verify.differential import TIE_VARIANTS, tie_case

TIE_SEEDS = range(12)


def _paper_fpts():
    """A split FP-TS assignment admitted under the paper's overheads."""
    taskset = TaskSet(
        [
            Task("a", wcet=2 * MS, period=10 * MS),
            Task("b", wcet=6 * MS, period=20 * MS),
            Task("c", wcet=5 * MS, period=25 * MS),
            Task("d", wcet=9 * MS, period=50 * MS),
            Task("e", wcet=16 * MS, period=40 * MS, wss=16 * 1024),
            Task("f", wcet=6 * MS, period=10 * MS, wss=16 * 1024),
        ]
    ).assign_rate_monotonic()
    model = OverheadModel.paper_core_i7(2)
    assignment = build_assignment("FP-TS", taskset, 2, model)
    assert assignment is not None and assignment.n_split_tasks == 1
    return assignment, model


@pytest.mark.parametrize("seed", TIE_SEEDS)
def test_tie_family_matches_legacy(seed):
    case = tie_case(seed)
    assert case is not None
    _variant, assignment, model, duration, kwargs = case
    legacy = LegacyKernelSim(
        assignment, model, duration, policy=assignment.sched_class, **kwargs
    ).run()
    plugin = KernelSim(assignment, model, duration, **kwargs).run()
    assert result_to_canonical(plugin) == result_to_canonical(legacy)


def test_tie_family_covers_its_corner_cases():
    seen = set()
    for seed in TIE_SEEDS:
        variant, assignment, model, duration, kwargs = tie_case(seed)
        assert kwargs["tick_ns"] > 0
        periods = sorted({task.period for task in assignment.tasks})
        assert all(p % periods[0] == 0 for p in periods), "harmonic"
        result = KernelSim(assignment, model, duration, **kwargs).run()
        ops = [seg for seg in result.trace if seg[4] == "overhead"]
        if variant == "zero-overhead":
            assert model.is_zero and not ops
        elif variant == "op-end-at-horizon":
            assert any(end == duration for _c, _s, end, _l, _k in ops)
        else:
            assert any(
                start <= duration < end for _c, start, end, _l, _k in ops
            )
        seen.add(variant)
    assert seen == set(TIE_VARIANTS)


def _count_op_end_pushes(sim):
    """Wrap the run's event queue to count pushed kernel-op ends."""
    op_done = {core.op_done for core in sim.cores}
    pushed = []
    schedule_fast = sim.queue.schedule_fast

    def counting(time, fn, priority=0):
        if fn in op_done:
            pushed.append(time)
        schedule_fast(time, fn, priority=priority)

    sim.queue.schedule_fast = counting
    return pushed


def _sum(registry, name):
    """Sum of a counter family over all its label sets."""
    return sum(
        entry["value"]
        for entry in registry.as_dict()["metrics"]
        if entry["name"] == name
    )


@pytest.mark.parametrize(
    "horizon, expect_in_flight", [(200 * MS, 0), (200 * MS + 7_000, 2)]
)
def test_chained_ops_are_counted_and_timed_one_by_one(
    horizon, expect_in_flight
):
    assignment, model = _paper_fpts()
    registry = MetricsRegistry()
    sim = KernelSim(assignment, model, horizon, metrics=registry, seed=3)
    pushed = _count_op_end_pushes(sim)
    sim.run()
    ops = _sum(registry, "sim_kernel_ops_total")
    calls = _sum(registry, "wall_handler_calls_total")
    # Every op started is counted; every op whose end was reached is
    # timed.  They differ by the ops still in flight at the horizon.
    in_flight = sum(1 for core in sim.cores if core.in_kernel)
    assert in_flight == expect_in_flight
    assert ops > 0
    assert calls == ops - in_flight
    assert sum(count for count, _ns in sim.profile.values()) == calls
    assert len(pushed) < ops, "the run must actually chain ops"


def test_profile_counts_every_op():
    assignment, model = _paper_fpts()
    profiled = KernelSim(assignment, model, 200 * MS, profile=True, seed=3)
    profiled.run()
    registry = MetricsRegistry()
    metered = KernelSim(assignment, model, 200 * MS, metrics=registry, seed=3)
    metered.run()
    assert {
        bucket: count for bucket, (count, _ns) in profiled.profile.items()
    } == {
        bucket: count for bucket, (count, _ns) in metered.profile.items()
    }


def test_observation_never_perturbs_a_paper_overhead_run():
    assignment, model = _paper_fpts()

    def run(**kwargs):
        result = KernelSim(
            assignment,
            model,
            200 * MS,
            record_trace=True,
            sporadic_jitter=MS,
            execution_variation=0.2,
            seed=5,
            **kwargs,
        ).run()
        return result_to_canonical(result), result.energy

    baseline = run()
    assert baseline[0]["migrations"] > 0, "the set must split"
    assert run(metrics=MetricsRegistry(enabled=False)) == baseline
    assert run(metrics=MetricsRegistry()) == baseline
    assert run(profile=True) == baseline
