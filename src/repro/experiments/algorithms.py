"""Algorithm registry with uniform overhead-aware acceptance semantics.

Every algorithm is exposed as: *given a (raw) rate-monotonic task set, a
core count and an overhead model, does the overhead-aware schedulability
analysis accept the set, and what assignment does it produce?*

Overheads enter exactly as Section 4 of the paper describes — folded into
the analysis:

* every task's WCET is inflated by the per-job charge
  (:func:`repro.overhead.accounting.per_job_overhead`);
* FP-TS additionally reserves the per-migration charge for every subtask
  boundary it creates (``FptsConfig.split_cost``).

FP-TS places every task whole, first-fit, with the same exact-RTA probe
FFD uses, and splits only once a task fits on no core.  Until FFD's
first failure the two runs are therefore the same run, and FFD accepts
a set exactly when FP-TS accepts it without splitting (with the
identical assignment).  :func:`build_assignments` and
:func:`accept_populations` use this to answer both algorithms from one
first-fit pass whenever a caller asks for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.global_bounds import (
    global_edf_gfb_schedulable,
    global_rm_us_schedulable,
)
from repro.kernel.global_sim import build_global_assignment
from repro.model.assignment import Assignment
from repro.model.taskset import TaskSet
from repro.overhead.accounting import inflate_taskset
from repro.overhead.model import OverheadModel
from repro.partition.edf import partition_edf_first_fit
from repro.partition.heuristics import (
    partition_best_fit_decreasing,
    partition_first_fit_decreasing,
    partition_next_fit_decreasing,
    partition_worst_fit_decreasing,
)
from repro.semipart.cd_split import CdSplitConfig, cd_split_partition
from repro.semipart.fpts import FptsConfig, fpts_partition
from repro.semipart.pdms import PdmsConfig, pdms_hpts_partition
from repro.semipart.spa import spa1_partition, spa2_partition

# (taskset, n_cores, model) -> assignment or None
PartitionFn = Callable[[TaskSet, int, OverheadModel], Optional[Assignment]]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered scheduling algorithm."""

    name: str
    kind: str  # "partitioned" | "semi-partitioned" | "global"
    fn: PartitionFn
    description: str
    #: Scheduling class this algorithm's assignments are correct under
    #: (:data:`repro.kernel.sched_class.SCHED_CLASSES` registry name):
    #: EDF-side partitioners need deadline-keyed ready queues, the global
    #: tests a shared-queue class.  The only algorithm -> class table:
    #: :func:`build_assignment` stamps it on every assignment.
    sched_class: str = "fp"


def _with_inflation(
    partition: Callable[[TaskSet, int], Optional[Assignment]],
) -> PartitionFn:
    def run(
        taskset: TaskSet, n_cores: int, model: OverheadModel
    ) -> Optional[Assignment]:
        return partition(inflate_taskset(taskset, model), n_cores)

    return run


def _global_edf(taskset: TaskSet, n_cores: int) -> Optional[Assignment]:
    """GFB acceptance.  Placement is a runtime decision, so the accepted
    assignment is the shared-queue shape
    :func:`~repro.kernel.global_sim.build_global_assignment` builds."""
    if global_edf_gfb_schedulable(taskset, n_cores):
        return build_global_assignment(taskset, n_cores)
    return None


def _global_rm(taskset: TaskSet, n_cores: int) -> Optional[Assignment]:
    """RM-US acceptance; the assignment as for ``_global_edf``."""
    if global_rm_us_schedulable(taskset, n_cores):
        return build_global_assignment(taskset, n_cores)
    return None


def _fpts(
    taskset: TaskSet, n_cores: int, model: OverheadModel
) -> Optional[Assignment]:
    inflated = inflate_taskset(taskset, model)
    max_wss = max((task.wss for task in taskset), default=0)
    return fpts_partition(
        inflated,
        n_cores,
        FptsConfig.from_model(model, cpmd_wss=max_wss),
    )


def _cd_split(
    taskset: TaskSet, n_cores: int, model: OverheadModel
) -> Optional[Assignment]:
    inflated = inflate_taskset(taskset, model)
    max_wss = max((task.wss for task in taskset), default=0)
    return cd_split_partition(
        inflated,
        n_cores,
        CdSplitConfig.from_model(model, cpmd_wss=max_wss),
    )


def _pdms(
    taskset: TaskSet, n_cores: int, model: OverheadModel
) -> Optional[Assignment]:
    from repro.overhead.accounting import (
        migration_in_overhead,
        migration_out_overhead,
    )

    inflated = inflate_taskset(taskset, model)
    max_wss = max((task.wss for task in taskset), default=0)
    config = PdmsConfig(
        split_cost=migration_in_overhead(model, max_wss),
        split_cost_out=migration_out_overhead(model),
    )
    return pdms_hpts_partition(inflated, n_cores, config)


ALGORITHMS: Dict[str, AlgorithmSpec] = {
    "FP-TS": AlgorithmSpec(
        name="FP-TS",
        kind="semi-partitioned",
        fn=_fpts,
        description=(
            "Fixed-priority semi-partitioned scheduling with RTA-based "
            "task splitting (the algorithm the paper implements)"
        ),
    ),
    "FFD": AlgorithmSpec(
        name="FFD",
        kind="partitioned",
        fn=_with_inflation(partition_first_fit_decreasing),
        description="First-fit decreasing partitioned RM (paper baseline)",
    ),
    "WFD": AlgorithmSpec(
        name="WFD",
        kind="partitioned",
        fn=_with_inflation(partition_worst_fit_decreasing),
        description="Worst-fit decreasing partitioned RM (paper baseline)",
    ),
    "BFD": AlgorithmSpec(
        name="BFD",
        kind="partitioned",
        fn=_with_inflation(partition_best_fit_decreasing),
        description="Best-fit decreasing partitioned RM (extension)",
    ),
    "NFD": AlgorithmSpec(
        name="NFD",
        kind="partitioned",
        fn=_with_inflation(partition_next_fit_decreasing),
        description="Next-fit decreasing partitioned RM (extension)",
    ),
    "SPA1": AlgorithmSpec(
        name="SPA1",
        kind="semi-partitioned",
        fn=_with_inflation(spa1_partition),
        description=(
            "Utilization-bound semi-partitioning, light tasks only "
            "(Guan et al. RTAS'10, reconstruction)"
        ),
    ),
    "SPA2": AlgorithmSpec(
        name="SPA2",
        kind="semi-partitioned",
        fn=_with_inflation(spa2_partition),
        description=(
            "Utilization-bound semi-partitioning with heavy-task "
            "pre-assignment (Guan et al. RTAS'10, reconstruction)"
        ),
    ),
    "PDMS": AlgorithmSpec(
        name="PDMS",
        kind="semi-partitioned",
        fn=_pdms,
        description=(
            "Highest-priority task splitting (PDMS_HPTS, Lakshmanan et "
            "al. 2009, extension)"
        ),
    ),
    "C=D": AlgorithmSpec(
        name="C=D",
        kind="semi-partitioned",
        fn=_cd_split,
        description=(
            "Semi-partitioned EDF with C=D task splitting "
            "(Burns et al. 2012, extension)"
        ),
        sched_class="edf",
    ),
    "P-EDF": AlgorithmSpec(
        name="P-EDF",
        kind="partitioned",
        fn=_with_inflation(partition_edf_first_fit),
        description=(
            "Partitioned EDF, first-fit decreasing, exact demand-bound "
            "admission (extension)"
        ),
        sched_class="edf",
    ),
    "G-EDF": AlgorithmSpec(
        name="G-EDF",
        kind="global",
        fn=_with_inflation(_global_edf),
        description="Global EDF, GFB density test (extension baseline)",
        sched_class="global-edf",
    ),
    "G-RM": AlgorithmSpec(
        name="G-RM",
        kind="global",
        fn=_with_inflation(_global_rm),
        description=(
            "Global fixed-priority, RM-US[m/(3m-2)] utilization test "
            "(extension baseline)"
        ),
        sched_class="global-rm",
    ),
}


def build_assignment(
    algorithm: str,
    taskset: TaskSet,
    n_cores: int,
    model: OverheadModel = OverheadModel.zero(),
) -> Optional[Assignment]:
    """Run ``algorithm`` and return its assignment (None = rejected).

    The assignment records each task's raw WCET
    (:attr:`~repro.model.assignment.Assignment.raw_wcet`), so simulating
    it charges the overheads once, as kernel work, and not a second
    time through inflated job demands.  It also records the algorithm's
    scheduling class (:attr:`AlgorithmSpec.sched_class`), so the
    simulator dispatches it the way the analysis assumed.
    """
    try:
        spec = ALGORITHMS[algorithm]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; choose from "
            f"{sorted(ALGORITHMS)}"
        ) from None
    assignment = spec.fn(taskset, n_cores, model)
    if assignment is not None:
        assignment.raw_wcet = {task.name: task.wcet for task in taskset}
        assignment.sched_class = spec.sched_class
    return assignment


def build_assignments(
    algorithms: Sequence[str],
    taskset: TaskSet,
    n_cores: int,
    model: OverheadModel = OverheadModel.zero(),
) -> Dict[str, Optional[Assignment]]:
    """Assignments of several algorithms on one task set (None = rejected).

    When both FP-TS and FFD are asked, FP-TS runs once and FFD is read
    off it: FFD's assignment is FP-TS's when that splits no task (the
    same object), and ``None`` otherwise.  Every other algorithm runs
    on its own.  Each returned assignment equals a separate
    :func:`build_assignment` call.
    """
    out: Dict[str, Optional[Assignment]] = {}
    if "FP-TS" in algorithms and "FFD" in algorithms:
        fpts = build_assignment("FP-TS", taskset, n_cores, model)
        out["FP-TS"] = fpts
        unsplit = fpts is not None and fpts.n_split_tasks == 0
        out["FFD"] = fpts if unsplit else None
    for algorithm in algorithms:
        if algorithm not in out:
            out[algorithm] = build_assignment(
                algorithm, taskset, n_cores, model
            )
    return out


def accept(
    algorithm: str,
    taskset: TaskSet,
    n_cores: int,
    model: OverheadModel = OverheadModel.zero(),
) -> bool:
    """True iff the overhead-aware analysis accepts the task set."""
    return build_assignment(algorithm, taskset, n_cores, model) is not None


#: Algorithms the batch layer can express: plain decreasing-utilization
#: bin packing, mapped to (placement, admission).  FP-TS shares FFD's row
#: when both are asked (see :func:`accept_populations`); the other
#: splitting algorithms (SPA*, PDMS, C=D) and the global tests stay
#: scalar.
BATCH_ALGORITHMS: Dict[str, Tuple[str, str]] = {
    "FFD": ("first-fit", "rta"),
    "WFD": ("worst-fit", "rta"),
    "BFD": ("best-fit", "rta"),
    "NFD": ("next-fit", "rta"),
    "P-EDF": ("first-fit", "edf"),
}


def accept_population(
    algorithm: str,
    population: "TaskSetPopulation",
    n_cores: int,
    model: OverheadModel = OverheadModel.zero(),
    stats: Optional["BatchStats"] = None,
) -> List[bool]:
    """Accept/reject vector of ``algorithm`` over a whole population.

    One-algorithm form of :func:`accept_populations` (FP-TS alone runs
    the scalar splitter on every lane, since FFD is not asked here).
    """
    return accept_populations(
        [algorithm], population, n_cores, model, stats=stats
    )[algorithm]


def accept_populations(
    algorithms: Sequence[str],
    population: "TaskSetPopulation",
    n_cores: int,
    model: OverheadModel = OverheadModel.zero(),
    stats: Optional["BatchStats"] = None,
) -> Dict[str, List[bool]]:
    """Accept/reject vectors of several algorithms over one population.

    The path is picked per algorithm from the input, and every path
    gives the verdicts of a separate :func:`accept` call per lane (the
    batch-vs-scratch differential pair enforces this continuously):

    * the batchable algorithms (:data:`BATCH_ALGORITHMS`) share a single
      packing pass through
      :func:`repro.analysis.batch.batch_partition_accept_multi` — the
      per-step vectorized probes cover every algorithm's rows at once;
    * FP-TS is FFD until FFD's first failure, so when FFD's row came
      from the batch pass, every lane FFD accepts is an FP-TS accept and
      only the FFD-rejected lanes run the scalar splitter.  Those lanes
      are FP-TS's own work, not a batch failure: they are not counted as
      ``scalar_fallbacks``;
    * everything else — and every batchable algorithm of a population
      the batch layer rejects (:class:`PopulationError`, each lane
      counted once per such algorithm in ``scalar_fallbacks``) — runs
      lane by lane through :func:`build_assignments`, which still
      answers FP-TS and FFD from one FP-TS run.
    """
    # Imported here, not at module top: single-set callers (admission,
    # analyze) never run the batch kernel, so they never load it.
    from repro.analysis.batch import (
        BATCH_STATS,
        PopulationError,
        batch_partition_accept_multi,
    )

    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise KeyError(
                f"unknown algorithm {algorithm!r}; choose from "
                f"{sorted(ALGORITHMS)}"
            )
    wanted = list(dict.fromkeys(algorithms))
    out: Dict[str, List[bool]] = {}
    batched = [a for a in wanted if a in BATCH_ALGORITHMS]
    if batched:
        try:
            matrix = batch_partition_accept_multi(
                population,
                n_cores,
                model=model,
                configs=[BATCH_ALGORITHMS[a] for a in batched],
                stats=stats,
            )
            for row, algorithm in zip(matrix, batched):
                out[algorithm] = [bool(v) for v in row]
        except PopulationError:
            tracker = stats if stats is not None else BATCH_STATS
            tracker.scalar_fallbacks += population.n_sets * len(batched)
    rest = [a for a in wanted if a not in out]
    if "FP-TS" in rest and "FFD" in out:
        rest.remove("FP-TS")
        ffd = out["FFD"]
        rejected = [lane for lane, ok in enumerate(ffd) if not ok]
        fpts = list(ffd)
        for lane, taskset in zip(rejected, population.tasksets(rejected)):
            fpts[lane] = (
                build_assignment("FP-TS", taskset, n_cores, model)
                is not None
            )
        out["FP-TS"] = fpts
    if rest:
        for algorithm in rest:
            out[algorithm] = []
        for taskset in population.tasksets():
            built = build_assignments(rest, taskset, n_cores, model)
            for algorithm in rest:
                out[algorithm].append(built[algorithm] is not None)
    return {algorithm: out[algorithm] for algorithm in algorithms}
