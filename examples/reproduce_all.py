#!/usr/bin/env python3
"""Regenerate every experiment of the reproduction in one run.

Produces the tables/series for E1-E9 (see DESIGN.md) directly, without
pytest, and prints them to stdout.  This is the script behind
EXPERIMENTS.md.

Run:  python examples/reproduce_all.py            (quick profile, ~1 min)
      python examples/reproduce_all.py --full     (larger sample sizes)
"""

from __future__ import annotations

import sys

from repro.cache import CachePenaltyModel
from repro.experiments import (
    AcceptanceConfig,
    run_acceptance,
    run_overhead_sensitivity,
    validate_by_simulation,
)
from repro.experiments.splitting import splitting_statistics, splitting_table
from repro.kernel import KernelSim, build_global_assignment
from repro.model import MS, Task, TaskSet
from repro.overhead import OverheadModel
from repro.overhead.measure import measure_queue_operations
from repro.overhead.model import PAPER_QUEUE_POINTS
from repro.partition import partition_first_fit_decreasing
from repro.trace import render_overhead_anatomy

FULL = "--full" in sys.argv
SETS = 150 if FULL else 40


def banner(exp_id: str, title: str) -> None:
    print(f"\n{'=' * 72}\n{exp_id}: {title}\n{'=' * 72}")


def e1_figure1() -> None:
    banner("E1", "Figure 1 — overhead anatomy")
    taskset = TaskSet(
        [
            Task("tau1", wcet=1 * MS, period=20 * MS),
            Task("tau2", wcet=10 * MS, period=40 * MS),
        ]
    ).assign_rate_monotonic()
    assignment = partition_first_fit_decreasing(taskset, 1)
    model = OverheadModel.paper_core_i7(4)
    result = KernelSim(
        assignment,
        model,
        duration=20 * MS,
        record_trace=True,
        release_offsets={"tau1": 2 * MS},
    ).run()
    print(render_overhead_anatomy(result.trace, core=0))
    print(
        f"\nmodel: b..e = {(model.rls + model.sch(True) + model.cnt1) / 1000:.1f} us, "
        f"f..i = {(model.sch(False) + model.cnt2_finish) / 1000:.1f} us"
    )


def e2_queue_table() -> None:
    banner("E2", "Section 3 table — queue operation durations")
    paper = {n: (d, t) for n, d, t in PAPER_QUEUE_POINTS}
    print(
        f"{'N':>4} {'paper δ(µs)':>12} {'ours δ mean(µs)':>16} "
        f"{'paper θ(µs)':>12} {'ours θ mean(µs)':>16}"
    )
    for n in (4, 64):
        m = measure_queue_operations(n, rounds=3000, warmup_rounds=500)
        pd, pt = paper[n]
        print(
            f"{n:>4} {pd / 1000:>12.1f} {m.ready_mean_ns / 1000:>16.2f} "
            f"{pt / 1000:>12.1f} {m.sleep_mean_ns / 1000:>16.2f}"
        )


def e3_acceptance() -> None:
    banner("E3", "Section 4 — acceptance ratio (FP-TS vs FFD vs WFD)")
    config = AcceptanceConfig(
        n_cores=4,
        n_tasks=12,
        sets_per_point=SETS,
        overheads=OverheadModel.paper_core_i7(3),
        algorithms=("FP-TS", "FFD", "WFD"),
    )
    print(run_acceptance(config).as_table())


def e4_cache() -> None:
    banner("E4", "Section 3 — cache-related delay, local vs migration")
    shared = CachePenaltyModel()
    private = CachePenaltyModel.private_only()
    print(f"{'WSS(KiB)':>9} {'local(µs)':>10} {'migrate(µs)':>12} {'no-L3(µs)':>10}")
    for wss in (4, 64, 256, 1024, 16384):
        b = wss * 1024
        print(
            f"{wss:>9} {shared.preemption_delay(b) / 1000:>10.1f} "
            f"{shared.migration_delay(b) / 1000:>12.1f} "
            f"{private.migration_delay(b) / 1000:>10.1f}"
        )


def e5_sensitivity() -> None:
    banner("E5", "Section 4 claim — overhead effect on schedulability")
    config = AcceptanceConfig(
        n_cores=4,
        n_tasks=12,
        sets_per_point=max(20, SETS // 2),
        utilizations=[0.80, 0.85, 0.90, 0.95],
        algorithms=("FP-TS", "FFD"),
    )
    sensitivity = run_overhead_sensitivity(
        config, factors=(0.0, 1.0, 10.0, 100.0)
    )
    for name in ("FP-TS", "FFD"):
        print(sensitivity.as_table(name))
        print()


def e6_validation() -> None:
    banner("E6", "analysis-vs-simulation soundness")
    for algorithm in ("FP-TS", "FFD"):
        report = validate_by_simulation(
            algorithm=algorithm,
            n_cores=4,
            n_tasks=8,
            normalized_utilization=0.85,
            sets=8,
            seed=2011,
        )
        print(report.as_table())


def e7_splitting() -> None:
    banner("E7", "FP-TS splitting statistics")
    rows = splitting_statistics(
        n_cores=4, n_tasks=12, sets_per_point=max(20, SETS // 2)
    )
    print(splitting_table(rows))


def e8_policies() -> None:
    banner("E8", "scheduling-paradigm comparison (extension)")
    config = AcceptanceConfig(
        n_cores=4,
        n_tasks=12,
        sets_per_point=SETS,
        utilizations=[0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
        overheads=OverheadModel.paper_core_i7(3),
        algorithms=("FP-TS", "C=D", "FFD", "P-EDF", "G-EDF", "G-RM"),
    )
    print(run_acceptance(config).as_table())


def e9_dhall() -> None:
    banner("E9", "Dhall's effect (extension)")
    m = 4
    tasks = [Task(f"light{i}", wcet=1 * MS, period=10 * MS) for i in range(m)]
    tasks.append(Task("heavy", wcet=100 * MS, period=101 * MS))
    taskset = TaskSet(tasks).assign_rate_monotonic()
    horizon = 10 * 101 * MS
    g_rm = KernelSim(
        build_global_assignment(taskset, m),
        OverheadModel.zero(),
        duration=horizon,
        sched_class="global-rm",
    ).run()
    g_rm_misses = sum(
        1 for miss in g_rm.misses if miss.kind in ("overrun", "late")
    )
    assignment = partition_first_fit_decreasing(taskset, m)
    part = KernelSim(
        assignment, OverheadModel.paper_core_i7(2), duration=horizon
    ).run()
    print(
        f"U = {taskset.total_utilization:.3f} on {m} cores "
        f"({taskset.total_utilization / m:.1%} of capacity)"
    )
    print(f"global RM:      {g_rm_misses} misses")
    print(f"partitioned RM: {part.miss_count} misses (with overheads)")


def main() -> None:
    e1_figure1()
    e2_queue_table()
    e3_acceptance()
    e4_cache()
    e5_sensitivity()
    e6_validation()
    e7_splitting()
    e8_policies()
    e9_dhall()


if __name__ == "__main__":
    main()
