#!/usr/bin/env python3
"""EDF-side study: partitioned EDF and C=D splitting (extensions).

Shows the dynamic-priority counterpart of the paper's comparison:

1. a non-harmonic full-load core that RM cannot schedule but EDF can;
2. the canonical 3-equal-tasks-on-2-cores workload solved by C=D
   splitting, simulated under the EDF scheduling class the assignment
   records, with per-stage deadlines (the chunk's C=D deadline makes EDF
   serve it immediately);
3. a side-by-side acceptance sweep: FP-TS vs C=D vs P-EDF vs FFD.

Run:  python examples/edf_cd_study.py
"""

from repro.analysis.edf import edf_schedulable
from repro.analysis.rta import response_time
from repro.experiments import AcceptanceConfig, run_acceptance
from repro.experiments.algorithms import build_assignment
from repro.experiments.plot import acceptance_plot
from repro.kernel import KernelSim
from repro.model import MS, SEC, Task, TaskSet
from repro.overhead import OverheadModel
from repro.trace import validate_trace


def rm_vs_edf_on_full_core() -> None:
    print("=== 1. RM vs EDF on one core at U = 1.0 (non-harmonic) ===")
    triples = [(5 * MS, 10 * MS, 10 * MS), (7 * MS, 14 * MS, 14 * MS)]
    print("tasks: (C=5,T=10) + (C=7,T=14), U = 1.0")
    rm_response = response_time(7 * MS, [(5 * MS, 10 * MS, 0)], limit=14 * MS)
    print(f"RM: low-priority response bound = {rm_response} (None = unschedulable)")
    print(f"EDF (processor demand analysis): {edf_schedulable(triples)}")


def cd_split_demo() -> None:
    print("\n=== 2. C=D splitting of 3 x (5.5ms, 10ms) on 2 cores ===")
    taskset = TaskSet(
        [
            Task("x", wcet=5500_000, period=10 * MS),
            Task("y", wcet=5500_000, period=10 * MS),
            Task("z", wcet=5500_000, period=10 * MS),
        ]
    ).assign_rate_monotonic()
    # Overhead-aware analysis (inflated WCETs, located migration
    # charges); the assignment records the edf class and the raw WCETs
    # its jobs execute.
    overheads = OverheadModel.paper_core_i7(4)
    assignment = build_assignment("C=D", taskset, 2, overheads)
    assert assignment is not None and assignment.sched_class == "edf"
    print(assignment.describe())
    split = next(iter(assignment.split_tasks.values()))
    chunk = split.subtasks[0]
    print(
        f"\nthe C=D chunk: budget {chunk.budget / MS:.3f} ms with deadline "
        f"{chunk.budget / MS:.3f} ms — EDF serves it immediately on arrival"
    )
    result = KernelSim(
        assignment,
        overheads,
        duration=1 * SEC,
        record_trace=True,
    ).run()
    print(
        f"1 s EDF simulation with overheads: misses={result.miss_count} "
        f"migrations={result.migrations}"
    )
    print(f"trace violations: {len(validate_trace(result.trace, assignment))}")


def side_by_side() -> None:
    print("\n=== 3. acceptance sweep: FP side vs EDF side ===")
    config = AcceptanceConfig(
        n_cores=4,
        n_tasks=12,
        sets_per_point=40,
        utilizations=[0.80, 0.85, 0.90, 0.95, 1.00],
        overheads=OverheadModel.paper_core_i7(3),
        algorithms=("FP-TS", "C=D", "P-EDF", "FFD"),
    )
    result = run_acceptance(config)
    print(result.as_table())
    print()
    print(acceptance_plot(result))


def main() -> None:
    rm_vs_edf_on_full_core()
    cd_split_demo()
    side_by_side()


if __name__ == "__main__":
    main()
