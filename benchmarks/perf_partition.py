"""Performance harness for the incremental analysis engine.

Runs the paper's default E3 acceptance sweep (4 cores, 12 tasks,
normalized utilization 0.600..1.000 in 0.025 steps, paper-calibrated
overheads, FP-TS + FFD + WFD) twice — once on the incremental per-core
analysis contexts (:mod:`repro.analysis.incremental`) and once under
:func:`~repro.analysis.incremental.oracle_contexts`, where every probe
is answered cold by the plain :mod:`repro.analysis.rta` /
:mod:`repro.analysis.edf` — and writes ``BENCH_partition.json`` at the
repo root with:

* per-mode wall-clock time and the oracle/incremental speedup;
* per-mode analysis work counters (fixed-point iterations, probes,
  budget searches) from :data:`repro.analysis.STATS` — the oracle's
  iterations counted around :func:`repro.analysis.rta.response_time`
  in an untimed pass — republished as the ``ana_*`` metric family;
* the acceptance counts of both modes, which **must be identical** —
  the harness exits non-zero on any divergence (CI runs it with
  ``--quick`` as a smoke gate; ``repro verify`` carries the stronger
  bit-identical assignment comparison).

Run it from the repo root::

    PYTHONPATH=src python benchmarks/perf_partition.py [--quick]

Notes on honesty: the oracle arm shares the budget search of the
incremental contexts (each budget probed once), so the recorded speedup
isolates memoization + warm starts and does not take credit for the
duplicate-probe bugfix, which benefits both modes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
import time

from repro.analysis import STATS, rta
from repro.analysis.incremental import oracle_contexts
from repro.experiments.algorithms import build_assignment
from repro.metrics import MetricsRegistry, record_analysis_stats
from repro.model.generator import TaskSetGenerator
from repro.model.time import MS
from repro.overhead.model import OverheadModel

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_partition.json"

N_CORES = 4
N_TASKS = 12
ALGORITHMS = ("FP-TS", "FFD", "WFD")
SEED = 2011


def _grid() -> list:
    return [round(0.600 + 0.025 * i, 3) for i in range(17)]


def _tasksets(sets_per_point: int) -> list:
    """The sweep's workloads: ``(utilization_point, taskset)`` pairs,
    seeded like the E3 engine sweep (one independent stream per set)."""
    out = []
    index = 0
    for point in _grid():
        for _ in range(sets_per_point):
            generator = TaskSetGenerator(
                n_tasks=N_TASKS,
                seed=SEED + 7919 * index,
                period_min=10 * MS,
                period_max=1000 * MS,
            )
            out.append((point, generator.generate(point * N_CORES)))
            index += 1
    return out


@contextlib.contextmanager
def _counting_cold_iterations():
    """Count the fixed-point iterations of :func:`rta.response_time`,
    which keeps no counters of its own: it walks its interferer list
    exactly once per iteration, so count the walks."""
    counter = {"iterations": 0}

    class Interferers(list):
        def __iter__(self):
            counter["iterations"] += 1
            return super().__iter__()

    original = rta.response_time
    rta.response_time = lambda budget, higher, limit: original(
        budget, Interferers(higher), limit
    )
    try:
        yield counter
    finally:
        rta.response_time = original


def run_sweep(
    workloads: list,
    model: OverheadModel,
    mode: str,
    repeats: int = 1,
) -> dict:
    """One full sweep per analysis ``mode`` (``"incremental"``, or
    ``"oracle"`` under :func:`oracle_contexts`): an untimed pass for the
    work counters and per-algorithm acceptance counts keyed by grid
    point, then best-of-``repeats`` timed passes."""
    oracle = mode == "oracle"
    scope = oracle_contexts if oracle else contextlib.nullcontext
    counting = _counting_cold_iterations if oracle else contextlib.nullcontext
    accepts = {alg: {} for alg in ALGORITHMS}
    STATS.reset()
    with scope(), counting() as cold:
        for point, taskset in workloads:
            for alg in ALGORITHMS:
                assignment = build_assignment(alg, taskset, N_CORES, model)
                key = f"{point:.3f}"
                accepts[alg][key] = accepts[alg].get(key, 0) + (
                    1 if assignment is not None else 0
                )
    stats = STATS.snapshot()
    STATS.reset()
    if cold is not None:
        stats["fixpoint_iterations"] = cold["iterations"]
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with scope():
            for _point, taskset in workloads:
                for alg in ALGORITHMS:
                    build_assignment(alg, taskset, N_CORES, model)
        walls.append(time.perf_counter() - t0)
    return {
        "mode": mode,
        "wall_s": round(min(walls), 4),
        "analysis_stats": stats,
        "accepts": accepts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer task sets per grid point (CI smoke mode)",
    )
    parser.add_argument(
        "--out", default=str(OUTPUT_PATH), help="where to write the JSON"
    )
    args = parser.parse_args(argv)

    sets_per_point = 5 if args.quick else 25
    repeats = 2 if args.quick else 3
    model = OverheadModel.paper_core_i7(3)
    workloads = _tasksets(sets_per_point)
    print(
        f"acceptance sweep: {len(workloads)} task sets x "
        f"{len(ALGORITHMS)} algorithms, both analysis modes ...",
        flush=True,
    )

    # Warm the shared per-set overhead-inflation memo so neither timed
    # arm pays it and run order cannot bias the comparison.
    from repro.overhead.accounting import inflate_taskset

    for _point, taskset in workloads:
        inflate_taskset(taskset, model)

    oracle = run_sweep(workloads, model, "oracle", repeats=repeats)
    print(
        f"  oracle      {oracle['wall_s']}s "
        f"({oracle['analysis_stats']['fixpoint_iterations']} fixed-point "
        f"iterations)"
    )
    incremental = run_sweep(workloads, model, "incremental", repeats=repeats)
    print(
        f"  incremental {incremental['wall_s']}s "
        f"({incremental['analysis_stats']['fixpoint_iterations']} fixed-point "
        f"iterations)"
    )

    if oracle["accepts"] != incremental["accepts"]:
        print(
            "FAIL: incremental and oracle analysis disagree on "
            "acceptance — analysis engines diverged",
            file=sys.stderr,
        )
        return 1

    speedup = (
        round(oracle["wall_s"] / incremental["wall_s"], 2)
        if incremental["wall_s"]
        else None
    )
    iteration_ratio = (
        round(
            oracle["analysis_stats"]["fixpoint_iterations"]
            / incremental["analysis_stats"]["fixpoint_iterations"],
            2,
        )
        if incremental["analysis_stats"]["fixpoint_iterations"]
        else None
    )
    print(f"  speedup {speedup}x wall, {iteration_ratio}x fewer iterations")

    registry = MetricsRegistry()
    record_analysis_stats(registry, oracle["analysis_stats"], mode="oracle")
    record_analysis_stats(
        registry, incremental["analysis_stats"], mode="incremental"
    )

    payload = {
        "environment": {
            "python": sys.version.split()[0],
            "platform": sys.platform,
            "quick": args.quick,
        },
        "scenario": {
            "n_cores": N_CORES,
            "n_tasks": N_TASKS,
            "algorithms": list(ALGORITHMS),
            "utilization_grid": _grid(),
            "sets_per_point": sets_per_point,
            "seed": SEED,
            "overheads": "paper_core_i7(3)",
        },
        "oracle": oracle,
        "incremental": incremental,
        "identical_acceptance": True,
        "speedup": speedup,
        "fixpoint_iteration_ratio": iteration_ratio,
        "metrics": registry.as_dict(),
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
