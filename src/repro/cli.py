"""Command-line interface.

Exposes the library's main workflows to non-Python users::

    repro list-algorithms
    repro analyze  --tasks workload.json --cores 4 --algorithm FP-TS \
                   --overheads paper
    repro simulate --tasks workload.json --cores 4 --algorithm FP-TS \
                   --duration-ms 2000 --overheads paper [--gantt]
    repro sweep    --cores 4 --n-tasks 12 --sets 50 --overheads paper \
                   --algorithms FP-TS,FFD,WFD
    repro measure  [--rounds 2000]
    repro profile  --tasks workload.json --cores 4 --algorithm FP-TS \
                   --duration-ms 1000 [--format json|prom] [--out report.json]
    repro profile  --sets 8 --n-tasks 12 --utilization 0.75 --cores 4 \
                   --jobs 4 [--format json|prom]
    repro generate --n-tasks 12 --utilization 3.2 --seed 7 --out workload.json
    repro verify   --trials 100 --seed 3 [--jobs 4] [--out verify-failures]
    repro verify   --replay verify-failures/<repro>.json

Task files are JSON (see :mod:`repro.model.io`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

# Only what build_parser() needs loads with the CLI; every handler
# imports the modules it runs, so a command pays for nothing else.
from repro.faults.plan import OVERRUN_POLICIES
from repro.kernel.sched_class import SCHED_CLASSES


def _overhead_model(spec: str, tasks_per_core: int) -> "OverheadModel":
    from repro.overhead.model import overhead_model_from_spec

    if spec.startswith("calib:"):
        from repro.workload.calibrate import CalibrationResult

        path = spec.split(":", 1)[1]
        try:
            result = CalibrationResult.load(path)
        except OSError as exc:
            raise SystemExit(
                f"--overheads: cannot read calibration {path!r}: {exc}"
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"--overheads: calibration {path!r}: {exc}")
        return result.overhead_model(tasks_per_core)
    try:
        return overhead_model_from_spec(spec, tasks_per_core)
    except ValueError as exc:
        raise SystemExit(
            f"--overheads: {exc} (or calib:<file> from 'repro calibrate')"
        )


def _parse_algorithms(spec: str) -> tuple:
    """Split and validate a comma-separated algorithm list.

    Unknown names are a one-line error naming the valid choices, not a
    traceback from deep inside the sweep.
    """
    from repro.experiments.algorithms import ALGORITHMS

    names = tuple(name.strip() for name in spec.split(",") if name.strip())
    if not names:
        raise SystemExit(
            f"--algorithms needs at least one algorithm; valid choices: "
            f"{', '.join(sorted(ALGORITHMS))}"
        )
    unknown = [name for name in names if name not in ALGORITHMS]
    if unknown:
        raise SystemExit(
            f"unknown algorithm(s) {', '.join(unknown)}; valid choices: "
            f"{', '.join(sorted(ALGORITHMS))}"
        )
    return names


def _check_algorithm(name: str) -> str:
    from repro.experiments.algorithms import ALGORITHMS

    if name not in ALGORITHMS:
        raise SystemExit(
            f"unknown algorithm {name!r}; valid choices: "
            f"{', '.join(sorted(ALGORITHMS))}"
        )
    return name


def _check_positive(value: int, flag: str) -> int:
    if value < 1:
        raise SystemExit(f"{flag} must be at least 1, got {value}")
    return value


def _load_fault_plan(path):
    """Parse ``--faults plan.json`` into a FaultPlan (one-line errors)."""
    if path is None:
        return None
    from repro.faults import FaultPlan

    try:
        return FaultPlan.from_json_file(path)
    except OSError as exc:
        raise SystemExit(f"--faults: cannot read {path!r}: {exc}")
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"--faults: {exc}")


def _load_tasks(path: str):
    """The task set in ``path``, priorities assigned (one-line errors)."""
    from repro.model.io import load_taskset

    try:
        return load_taskset(path).assign_rate_monotonic()
    except OSError as exc:
        raise SystemExit(f"--tasks: cannot read {path!r}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"--tasks {path!r}: {exc}")


def _cmd_list_algorithms(_args) -> int:
    from repro.experiments.algorithms import ALGORITHMS

    width = max(len(name) for name in ALGORITHMS)
    for name, spec in sorted(ALGORITHMS.items()):
        print(f"{name:<{width}}  [{spec.kind:>16}]  {spec.description}")
    return 0


def _cmd_generate(args) -> int:
    from repro.model.generator import TaskSetGenerator
    from repro.model.io import save_taskset

    _check_positive(args.n_tasks, "--n-tasks")
    if args.utilization <= 0:
        raise SystemExit(
            f"--utilization must be positive, got {args.utilization}"
        )
    generator = TaskSetGenerator(n_tasks=args.n_tasks, seed=args.seed)
    try:
        taskset = generator.generate(args.utilization)
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"generate: {exc}")
    try:
        save_taskset(taskset, args.out)
    except OSError as exc:
        raise SystemExit(f"--out: cannot write {args.out!r}: {exc}")
    print(f"wrote {len(taskset)} tasks (U={taskset.total_utilization:.3f}) "
          f"to {args.out}")
    return 0


def _prepare(args):
    from repro.experiments.algorithms import build_assignment

    _check_algorithm(args.algorithm)
    _check_positive(args.cores, "--cores")
    taskset = _load_tasks(args.tasks)
    tasks_per_core = max(1, len(taskset) // args.cores)
    model = _overhead_model(args.overheads, tasks_per_core)
    assignment = build_assignment(args.algorithm, taskset, args.cores, model)
    return taskset, model, assignment


def _cmd_analyze(args) -> int:
    from repro.analysis.rta import core_schedulable
    from repro.model.time import MS

    taskset, _model, assignment = _prepare(args)
    print(taskset.describe())
    print()
    if assignment is None:
        print(f"{args.algorithm}: REJECTED (not schedulable on "
              f"{args.cores} cores under the overhead-aware analysis)")
        return 1
    print(f"{args.algorithm}: accepted")
    if getattr(args, "save_assignment", None):
        from repro.model.io import save_assignment

        save_assignment(assignment, args.save_assignment)
        print(f"assignment saved to {args.save_assignment}")
    print(assignment.describe())
    print("\nworst-case response times:")
    for core in assignment.cores:
        analysis = core_schedulable(core.entries)
        for result in analysis.results:
            entry = result.entry
            response = "FAIL" if result.response is None else (
                f"{result.response / MS:9.3f} ms"
            )
            print(
                f"  core{core.core} {entry.name:<16} R={response}  "
                f"D={entry.deadline / MS:9.3f} ms"
            )
    return 0


def _cmd_simulate(args) -> int:
    from repro.experiments.algorithms import ALGORITHMS
    from repro.kernel.sim import KernelSim
    from repro.model.time import MS

    _check_positive(args.duration_ms, "--duration-ms")
    if getattr(args, "assignment", None):
        from repro.model.io import load_assignment

        taskset = _load_tasks(args.tasks)
        try:
            assignment = load_assignment(args.assignment)
        except OSError as exc:
            raise SystemExit(
                f"--assignment: cannot read {args.assignment!r}: {exc}"
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"--assignment {args.assignment!r}: {exc}")
        model = _overhead_model(
            args.overheads, max(1, len(taskset) // args.cores)
        )
    else:
        taskset, model, assignment = _prepare(args)
    if assignment is None:
        print(f"{args.algorithm}: REJECTED; nothing to simulate")
        return 1
    sched_class = getattr(args, "sched_class", "auto")
    if sched_class == "auto":
        sched_class = ALGORITHMS[args.algorithm].sched_class
    if sched_class in ("global-edf", "global-rm") and not list(
        assignment.entries()
    ):
        # The global acceptance tests return a placeholder partition (no
        # entries — placement is a runtime decision); build the runnable
        # shared-queue assignment from the task set instead.
        from repro.kernel.global_sim import build_global_assignment

        assignment = build_global_assignment(taskset, args.cores)
    plan = _load_fault_plan(getattr(args, "faults", None))
    frequencies = None
    power = None
    freq_spec = getattr(args, "freq", None)
    if freq_spec:
        from repro.energy.model import PowerModel, parse_freq_spec

        try:
            frequencies = parse_freq_spec(freq_spec, args.cores)
        except ValueError as error:
            raise SystemExit(str(error))
        power = PowerModel()
    sim = KernelSim(
        assignment,
        model,
        duration=args.duration_ms * MS,
        record_trace=args.gantt,
        execution_times={task.name: task.wcet for task in taskset},
        seed=args.seed,
        faults=plan,
        overrun_policy=args.overrun_policy,
        sched_class=sched_class,
        frequencies=frequencies,
        power=power,
    )
    result = sim.run()
    print(
        f"simulated {args.duration_ms} ms on {args.cores} cores: "
        f"releases={result.releases} misses={result.miss_count} "
        f"preemptions={result.preemptions} migrations={result.migrations}"
    )
    print(f"scheduler overhead: {100 * result.total_overhead_ratio:.3f}% "
          f"of the platform")
    energy = result.energy
    if not energy.is_empty:
        freq_text = ",".join(
            f"{core.freq_num}/{core.freq_den}"
            if core.freq_den != 1
            else f"{core.freq_num}"
            for core in energy.cores
        )
        print(
            f"energy: {energy.total_pj / 1e6:.3f} uJ "
            f"(busy {energy.busy_pj / 1e6:.3f} + "
            f"overhead {energy.overhead_pj / 1e6:.3f} + "
            f"idle {energy.idle_pj / 1e6:.3f}), "
            f"mean power {float(energy.average_power_mw):.1f} mW, "
            f"freq [{freq_text}]"
        )
    if plan is not None:
        print(result.faults.summary())
        killed = sum(s.jobs_killed for s in result.task_stats.values())
        by_kind = {}
        for miss in result.misses:
            by_kind[miss.kind] = by_kind.get(miss.kind, 0) + 1
        misses = " ".join(f"{k}={n}" for k, n in sorted(by_kind.items()))
        print(
            f"under faults (policy={args.overrun_policy}): "
            f"jobs_killed={killed} misses[{misses or 'none'}]"
        )
    for name in sorted(result.task_stats):
        stats = result.task_stats[name]
        print(
            f"  {name:<16} jobs={stats.jobs_completed:<6} "
            f"maxR={stats.max_response / MS:9.3f} ms "
            f"meanR={stats.mean_response / MS:9.3f} ms"
        )
    if args.gantt:
        from repro.trace.gantt import render_gantt

        window = min(args.duration_ms * MS, 50 * MS)
        print()
        print(render_gantt(result.trace, args.cores, width=100, end=window))
    return 0 if result.no_misses else 2


def _engine_for(args):
    """Build the shared ExperimentEngine from the engine flags
    (--jobs/--cache/--unit-timeout/--retries/--journal/--resume)."""
    from repro.engine import ExperimentEngine

    if args.jobs < 1:
        raise SystemExit("--jobs must be at least 1")
    if args.cache is not None:
        import pathlib

        cache_root = pathlib.Path(args.cache)
        if cache_root.exists() and not cache_root.is_dir():
            raise SystemExit(
                f"--cache {args.cache!r} exists and is not a directory"
            )
    if args.unit_timeout is not None and args.unit_timeout <= 0:
        raise SystemExit("--unit-timeout must be positive")
    if args.retries < 0:
        raise SystemExit("--retries must be non-negative")
    if args.resume and args.journal is None:
        raise SystemExit("--resume requires --journal")
    return ExperimentEngine(
        jobs=args.jobs,
        cache=args.cache,
        unit_timeout=args.unit_timeout,
        retries=args.retries,
        journal=args.journal,
        resume=args.resume,
    )


def _report_failures(engine) -> None:
    """One line per unit the engine gave up on (partial results)."""
    for failure in engine.last_failures:
        print(
            f"FAILED unit #{failure.index} [{failure.kind}] after "
            f"{failure.attempts} attempt(s): {failure.error}"
        )


def _parse_float_axis(spec: str, flag: str) -> tuple:
    try:
        values = tuple(
            float(v.strip()) for v in spec.split(",") if v.strip()
        )
    except ValueError:
        raise SystemExit(f"{flag}: expected comma-separated numbers")
    if not values:
        raise SystemExit(f"{flag} needs at least one value")
    return values


def _load_workload_profile(path):
    from repro.workload import WorkloadProfile

    try:
        return WorkloadProfile.load(path)
    except OSError as exc:
        raise SystemExit(f"cannot read profile {path!r}: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"profile {path!r}: {exc}")


def _cmd_workload_sweep(args) -> int:
    from repro.experiments.workload_sweep import (
        WorkloadSweepConfig,
        run_workload_sweep,
    )

    profile = _load_workload_profile(args.workload)
    config = WorkloadSweepConfig(
        profile=profile,
        horizon_ms=_check_positive(args.horizon_ms, "--horizon-ms"),
        seed=args.seed,
        scales=_parse_float_axis(args.scales, "--scales"),
        storm_intensities=_parse_float_axis(
            args.storm_intensities, "--storm-intensities"
        ),
        storm_on_ms=_check_positive(args.storm_on_ms, "--storm-on-ms"),
        storm_off_ms=args.storm_off_ms,
        stream=args.stream,
        server_kind=args.server,
        server_capacity_us=_check_positive(
            args.server_capacity_us, "--server-capacity-us"
        ),
        server_period_us=_check_positive(
            args.server_period_us, "--server-period-us"
        ),
        n_hard_tasks=args.hard_tasks,
        hard_utilization=args.hard_utilization,
    )
    engine = _engine_for(args)
    result = run_workload_sweep(config, engine=engine)
    print(result.as_table())
    print(engine.stats.summary())
    _report_failures(engine)
    return 0 if not engine.last_failures else 3


def _cmd_sweep(args) -> int:
    if args.workload is not None:
        return _cmd_workload_sweep(args)
    from repro.experiments.acceptance import AcceptanceConfig, run_acceptance

    algorithms = _parse_algorithms(args.algorithms)
    _check_positive(args.cores, "--cores")
    _check_positive(args.n_tasks, "--n-tasks")
    _check_positive(args.sets, "--sets")
    model = _overhead_model(
        args.overheads, max(1, args.n_tasks // args.cores)
    )
    config = AcceptanceConfig(
        n_cores=args.cores,
        n_tasks=args.n_tasks,
        sets_per_point=args.sets,
        overheads=model,
        algorithms=algorithms,
        seed=args.seed,
    )
    engine = _engine_for(args)
    result = run_acceptance(config, engine=engine)
    print(result.as_table())
    print(engine.stats.summary())
    _report_failures(engine)
    return 0 if not engine.last_failures else 3


def _cmd_breakdown(args) -> int:
    from repro.experiments.breakdown import run_breakdown

    algorithms = _parse_algorithms(args.algorithms)
    _check_positive(args.cores, "--cores")
    _check_positive(args.n_tasks, "--n-tasks")
    _check_positive(args.sets, "--sets")
    model = _overhead_model(
        args.overheads, max(1, args.n_tasks // args.cores)
    )
    result = run_breakdown(
        algorithms=algorithms,
        n_cores=args.cores,
        n_tasks=args.n_tasks,
        sets=args.sets,
        seed=args.seed,
        model=model,
    )
    print(result.as_table())
    return 0


def _mean_axis(result, algorithm: str, axis: str) -> float:
    """Mean of one criteria axis over an algorithm's measured records."""
    import math

    values = [
        getattr(r, axis)
        for r in result.filtered(algorithm=algorithm)
        if not math.isnan(getattr(r, axis))
    ]
    return sum(values) / len(values) if values else math.nan


def _cmd_campaign(args) -> int:
    from repro.experiments.campaign import CRITERIA_AXES, run_campaign
    from repro.overhead.model import OverheadModel

    algorithms = _parse_algorithms(args.algorithms)
    core_counts = tuple(int(c) for c in args.core_counts.split(","))
    task_counts = tuple(int(c) for c in args.task_counts.split(","))
    for count in core_counts:
        _check_positive(count, "--core-counts")
    for count in task_counts:
        _check_positive(count, "--task-counts")
    _check_positive(args.sets, "--sets")
    engine = _engine_for(args)
    result = run_campaign(
        core_counts=core_counts,
        task_counts=task_counts,
        algorithms=algorithms,
        overhead_specs=(
            ("zero", OverheadModel.zero()),
            ("paper", OverheadModel.paper_core_i7(4)),
        ),
        sets_per_point=args.sets,
        engine=engine,
        criteria=args.criteria,
    )
    print(result.pivot(row_key="algorithm", column_key="n_cores"))
    if args.criteria:
        from repro.experiments.plot import pareto_table

        for axis in CRITERIA_AXES:
            print()
            print(f"mean {axis}:")
            print(
                result.pivot(
                    row_key="algorithm",
                    column_key="n_cores",
                    value_key=axis,
                )
            )
        points = [
            {
                "algorithm": algorithm,
                "acceptance": result.mean_acceptance(algorithm=algorithm),
                "avg_power_mw": _mean_axis(result, algorithm,
                                           "avg_power_mw"),
                "preemptions": _mean_axis(result, algorithm,
                                          "preemptions"),
            }
            for algorithm in algorithms
        ]
        print()
        print("Pareto front (acceptance max, power min, preemptions min):")
        print(
            pareto_table(
                points,
                [
                    ("acceptance", "max"),
                    ("avg_power_mw", "min"),
                    ("preemptions", "min"),
                ],
            )
        )
    print(engine.stats.summary())
    _report_failures(engine)
    if result.is_partial:
        print(
            f"PARTIAL campaign: {len(result.failed_units)} grid point(s) "
            f"missing from the records (see failed-unit lines above)"
        )
    if args.csv:
        result.to_csv(args.csv)
        print(f"\n{len(result.records)} records written to {args.csv}")
    return 0 if not result.is_partial else 3


def _cmd_measure(args) -> int:
    from repro.overhead.measure import measure_queue_operations

    _check_positive(args.rounds, "--rounds")
    print(f"{'N':>4} {'ready max(us)':>14} {'ready mean(us)':>15} "
          f"{'sleep max(us)':>14} {'sleep mean(us)':>15}")
    for n in (4, 16, 64):
        m = measure_queue_operations(n, rounds=args.rounds)
        print(
            f"{n:>4} {m.ready_max_ns / 1000:>14.2f} "
            f"{m.ready_mean_ns / 1000:>15.2f} "
            f"{m.sleep_max_ns / 1000:>14.2f} "
            f"{m.sleep_mean_ns / 1000:>15.2f}"
        )
    return 0


def _cmd_calibrate(args) -> int:
    """Fit overhead-model constants from this machine's micro-benchmarks."""
    from repro.workload.calibrate import calibrate

    _check_positive(args.rounds, "--rounds")
    _check_positive(args.scheduler_rounds, "--scheduler-rounds")
    result = calibrate(
        rounds=args.rounds,
        scheduler_rounds=args.scheduler_rounds,
        seed=args.seed,
    )
    print(result.describe())
    if args.out:
        result.save(args.out)
        print(f"wrote {args.out} (use with --overheads calib:{args.out})")
    return 0


def _cmd_workload(args) -> int:
    """Trace ingest / profile fitting / scenario synthesis."""
    from repro.model.time import MS
    from repro.workload import (
        ScenarioSynthesizer,
        StormSpec,
        fit_profile,
        import_azure_invocations,
        import_csv,
        load_trace,
        save_trace,
    )

    try:
        if args.workload_command == "import-csv":
            trace = import_csv(args.input, default_stream=args.stream or "csv")
            save_trace(trace, args.out)
            print(
                f"wrote {args.out}: {len(trace.records)} records, "
                f"{len(trace.streams)} stream(s)"
            )
            return 0
        if args.workload_command == "import-azure":
            trace = import_azure_invocations(
                args.input,
                max_streams=args.max_streams,
            )
            save_trace(trace, args.out)
            print(
                f"wrote {args.out}: {len(trace.records)} records, "
                f"{len(trace.streams)} stream(s)"
            )
            return 0
        if args.workload_command == "fit":
            trace = load_trace(args.input)
            profile = fit_profile(trace, source=str(args.input))
            profile.save(args.out)
            for stream in profile.streams:
                print(
                    f"{stream.name}: {stream.n_jobs} jobs, "
                    f"rate={stream.rate_per_sec:.2f}/s, "
                    f"dispersion={stream.burst.index_of_dispersion:.2f}, "
                    f"storm intensity={stream.burst.intensity:.2f}"
                )
            print(f"wrote {args.out}")
            return 0
        if args.workload_command == "synth":
            profile = _load_workload_profile(args.input)
            storm = None
            if args.storm_intensity > 1.0:
                storm = StormSpec(
                    intensity=args.storm_intensity,
                    on_ns=_check_positive(args.storm_on_ms, "--storm-on-ms")
                    * MS,
                    off_ns=args.storm_off_ms * MS,
                )
            jobs = ScenarioSynthesizer(profile, seed=args.seed).synthesize(
                _check_positive(args.horizon_ms, "--horizon-ms") * MS,
                scale=args.scale,
                storm=storm,
            )
            total_work = sum(job.work for job in jobs)
            print(
                f"{len(jobs)} jobs over {args.horizon_ms} ms "
                f"(total work {total_work / 1e6:.2f} ms, "
                f"utilization {total_work / (args.horizon_ms * MS):.3f})"
            )
            return 0
    except OSError as exc:
        raise SystemExit(f"workload: {exc}")
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"workload: {exc}")
    raise SystemExit(
        f"unknown workload command {args.workload_command!r}"
    )


def _cmd_profile(args) -> int:
    """Run a metrics-instrumented scenario (or sweep) and emit a report.

    Single mode (``--tasks``): one in-process simulation.  Sweep mode
    (no ``--tasks``): ``--sets`` generated scenarios fanned out through
    the experiment engine (``--jobs``), whose metric shards are merged
    in the parent — the merged ``sim_*`` metrics equal a serial run's.
    """
    import json as _json

    from repro.kernel.sim import KernelSim
    from repro.metrics import MetricsRegistry, build_report
    from repro.model.time import MS

    _check_positive(args.cores, "--cores")
    _check_positive(args.duration_ms, "--duration-ms")
    registry = MetricsRegistry()
    lost_units = False
    if args.tasks:
        taskset, model, assignment = _prepare(args)
        if assignment is None:
            print(
                f"{args.algorithm}: REJECTED (not schedulable on "
                f"{args.cores} cores); nothing to profile",
                file=sys.stderr,
            )
            return 1
        plan = _load_fault_plan(args.faults)
        result = KernelSim(
            assignment,
            model,
            duration=args.duration_ms * MS,
            execution_times={task.name: task.wcet for task in taskset},
            seed=args.seed,
            faults=plan,
            overrun_policy=args.overrun_policy,
            metrics=registry,
        ).run()
        scenario = {
            "mode": "single",
            "tasks": args.tasks,
            "cores": args.cores,
            "algorithm": args.algorithm,
            "overheads": args.overheads,
            "duration_ms": args.duration_ms,
            "seed": args.seed,
            "overrun_policy": args.overrun_policy,
            "faults": args.faults,
        }
        summary = {
            "releases": result.releases,
            "misses": result.miss_count,
            "preemptions": result.preemptions,
            "migrations": result.migrations,
            "context_switches": result.context_switches,
            "overhead_ratio": result.total_overhead_ratio,
            "rejected_sets": 0,
            "profiled_sets": 1,
        }
    else:
        from repro.engine.units import ProfileUnit

        _check_positive(args.sets, "--sets")
        _check_positive(args.n_tasks, "--n-tasks")
        if args.utilization <= 0:
            raise SystemExit("--utilization must be positive")
        model = _overhead_model(
            args.overheads, max(1, args.n_tasks // args.cores)
        )
        units = [
            ProfileUnit(
                n_cores=args.cores,
                n_tasks=args.n_tasks,
                utilization=args.utilization,
                seed=args.seed + 7919 * index,
                algorithm=_check_algorithm(args.algorithm),
                overheads=model,
                duration_ms=args.duration_ms,
                overrun_policy=args.overrun_policy,
            )
            for index in range(args.sets)
        ]
        engine = _engine_for(args)
        payloads = engine.run(units)
        _report_failures(engine)
        summary = {
            "releases": 0,
            "misses": 0,
            "preemptions": 0,
            "migrations": 0,
            "context_switches": 0,
            "rejected_sets": 0,
            "profiled_sets": 0,
        }
        for payload in payloads:
            if payload is None:
                lost_units = True
                continue
            if payload["rejected"]:
                summary["rejected_sets"] += 1
                continue
            summary["profiled_sets"] += 1
            registry.merge(MetricsRegistry.from_dict(payload["metrics"]))
            for key in (
                "releases",
                "misses",
                "preemptions",
                "migrations",
                "context_switches",
            ):
                summary[key] += payload["summary"][key]
        scenario = {
            "mode": "sweep",
            "sets": args.sets,
            "n_tasks": args.n_tasks,
            "utilization": args.utilization,
            "cores": args.cores,
            "algorithm": args.algorithm,
            "overheads": args.overheads,
            "duration_ms": args.duration_ms,
            "seed": args.seed,
            "overrun_policy": args.overrun_policy,
        }
        if summary["profiled_sets"] == 0:
            print(
                "profile: every generated scenario was rejected; "
                "no metrics collected",
                file=sys.stderr,
            )
            return 1
    if args.format == "prom":
        text = registry.to_prometheus()
    else:
        report = build_report(registry, scenario, summary)
        text = _json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        import pathlib

        pathlib.Path(args.out).write_text(text, encoding="utf-8")
        print(
            f"profile: {summary['profiled_sets']} scenario(s), "
            f"{len(registry)} metric series -> {args.out}"
        )
    else:
        print(text, end="")
    return 3 if lost_units else 0


def _cmd_verify(args) -> int:
    from repro.verify import (
        TrialFailure,
        Scenario,
        full_check,
        load_repro,
        run_differential_suite,
        run_harness,
        shrink_scenario,
        write_repro,
    )

    if args.replay:
        scenario = load_repro(args.replay)
        violations = full_check(scenario)
        if violations:
            print(
                f"REPLAY {args.replay}: {len(violations)} violation(s)"
            )
            for violation in violations:
                print(f"  {violation}")
            return 2
        print(f"replay {args.replay}: scenario is clean")
        return 0

    _check_positive(args.trials, "--trials")
    if args.jobs < 1:
        raise SystemExit("--jobs must be at least 1")

    exit_code = 0
    if not args.skip_differential:
        suite = run_differential_suite(
            seed=args.seed,
            trials=min(50, max(10, args.trials // 5)),
            jobs=max(2, args.jobs),
        )
        for pair, diffs in suite.items():
            if diffs:
                exit_code = 2
                print(f"differential {pair}: FAIL")
                for diff in diffs[:5]:
                    print(f"  {diff}")
            else:
                print(f"differential {pair}: ok")

    if args.jobs == 1:
        report = run_harness(args.trials, args.seed, log=print)
        failures = report.failures
    else:
        from repro.engine import ExperimentEngine
        from repro.engine.units import VerifyUnit

        chunk = max(1, -(-args.trials // (args.jobs * 4)))
        units = [
            VerifyUnit(start=start, count=min(chunk, args.trials - start),
                       seed=args.seed)
            for start in range(0, args.trials, chunk)
        ]
        engine = ExperimentEngine(jobs=args.jobs)
        payloads = engine.run(units)
        failures = []
        for payload in payloads:
            if payload is None:
                print("verify: engine lost a trial chunk")
                exit_code = 2
                continue
            for failure in payload["failures"]:
                failures.append(
                    TrialFailure(
                        index=failure["index"],
                        scenario=Scenario.from_dict(failure["scenario"]),
                        violations=list(failure["violations"]),
                    )
                )
        failures.sort(key=lambda f: f.index)

    print(
        f"harness: {args.trials} trial(s), seed {args.seed}, "
        f"{len(failures)} failure(s)"
    )
    for failure in failures:
        exit_code = 2
        shrunk = shrink_scenario(failure.scenario)
        violations = shrunk.violations or failure.violations
        path = write_repro(
            shrunk.scenario,
            violations,
            out_dir=args.out,
            original=failure.scenario,
        )
        print(
            f"trial {failure.index}: shrunk "
            f"{len(failure.scenario.tasks)} -> "
            f"{len(shrunk.scenario.tasks)} task(s) in "
            f"{shrunk.evaluations} evaluation(s); repro: {path}"
        )
        for violation in violations[:3]:
            print(f"  {violation}")
    return exit_code


def _cmd_serve(args) -> int:
    """Run the schedulability service (see docs/service.md)."""
    import asyncio

    from repro.service import ServiceApp, ServiceConfig

    if args.shards < 1:
        raise SystemExit("--shards must be at least 1")
    if args.queue_limit < 0:
        raise SystemExit("--queue-limit must be non-negative")
    if args.deadline_ms <= 0:
        raise SystemExit("--deadline-ms must be positive")
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        queue_limit=args.queue_limit,
        rate=args.rate,
        burst=args.burst,
        deadline_s=args.deadline_ms / 1000.0,
        unit_timeout=args.unit_timeout,
        retries=args.retries,
        data_dir=args.data_dir,
        cache_dir=args.cache,
        seed=args.seed,
    )
    app = ServiceApp(config)
    try:
        asyncio.run(app.serve_forever())
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semi-partitioned multi-core scheduling toolkit "
        "(reproduction of Zhang, Guan & Yi, PPES 2011)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list-algorithms", help="list registered scheduling algorithms"
    ).set_defaults(fn=_cmd_list_algorithms)

    gen = sub.add_parser("generate", help="generate a random task set")
    gen.add_argument("--n-tasks", type=int, default=12)
    gen.add_argument("--utilization", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_generate)

    def common(p):
        p.add_argument("--tasks", required=True, help="task-set JSON file")
        p.add_argument("--cores", type=int, default=4)
        p.add_argument("--algorithm", default="FP-TS")
        p.add_argument(
            "--overheads",
            default="paper",
            help="zero | paper | paper*<factor>",
        )

    analyze = sub.add_parser("analyze", help="run schedulability analysis")
    common(analyze)
    analyze.add_argument(
        "--save-assignment",
        help="write the accepted assignment to this JSON file",
    )
    analyze.set_defaults(fn=_cmd_analyze)

    simulate = sub.add_parser("simulate", help="simulate an assignment")
    common(simulate)
    simulate.add_argument("--duration-ms", type=int, default=1000)
    simulate.add_argument("--gantt", action="store_true")
    simulate.add_argument(
        "--assignment",
        help="simulate a saved assignment JSON instead of re-partitioning",
    )
    simulate.add_argument(
        "--seed",
        type=int,
        default=0,
        help="simulation seed (drives fault injection; default: 0)",
    )
    simulate.add_argument(
        "--faults",
        metavar="FILE",
        help="fault-plan JSON (see docs/robustness.md); deterministic "
        "for a fixed --seed",
    )
    simulate.add_argument(
        "--overrun-policy",
        choices=list(OVERRUN_POLICIES),
        default="run-on",
        help="what the kernel does when a job exceeds its nominal WCET "
        "(default: run-on)",
    )
    simulate.add_argument(
        "--freq",
        metavar="SPEC",
        help="per-core frequency scaling for the simulation: '0.8' sets "
        "every core, '0.8,1.0' is positional per core, '0:0.8,2:0.5' "
        "names cores (rest stay at 1); enables the energy ledger's "
        "DVFS power model (docs/energy.md)",
    )
    simulate.add_argument(
        "--sched-class",
        choices=["auto"] + sorted(SCHED_CLASSES),
        default="auto",
        help="scheduling-class plugin for the simulator; auto derives it "
        "from the algorithm (EDF-side partitioners run under edf, the "
        "global tests under a shared-queue class; default: auto)",
    )
    simulate.set_defaults(fn=_cmd_simulate)

    def engine_flags(p):
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for the experiment engine "
            "(default: 1, serial; results are identical for any value)",
        )
        p.add_argument(
            "--cache",
            metavar="DIR",
            help="content-addressed result cache directory "
            "(e.g. .repro-cache; off by default)",
        )
        p.add_argument(
            "--unit-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-unit wall-clock timeout; a unit exceeding it is "
            "retried or reported as failed (default: none)",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=0,
            help="retry attempts per failed unit, with exponential "
            "backoff (default: 0)",
        )
        p.add_argument(
            "--journal",
            metavar="PATH",
            help="JSONL checkpoint journal; completed units are appended "
            "as they finish",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="reuse finished units from --journal and recompute "
            "only the rest",
        )

    sweep = sub.add_parser(
        "sweep",
        help="acceptance-ratio sweep, or (with --workload) a "
        "trace-driven scale x storm sweep",
    )
    sweep.add_argument("--cores", type=int, default=4)
    sweep.add_argument("--n-tasks", type=int, default=12)
    sweep.add_argument("--sets", type=int, default=50)
    sweep.add_argument("--seed", type=int, default=2011)
    sweep.add_argument("--overheads", default="paper")
    sweep.add_argument("--algorithms", default="FP-TS,FFD,WFD")
    sweep.add_argument(
        "--batch",
        action="store_true",
        help="no effect: sweep points are always analyzed as one "
        "population",
    )
    sweep.add_argument(
        "--workload",
        metavar="PROFILE",
        help="fitted workload-profile JSON (from 'repro workload fit'); "
        "switches the sweep to the trace-driven scale x storm grid",
    )
    sweep.add_argument(
        "--scales",
        default="1.0",
        help="comma-separated load scales (workload mode; default: 1.0)",
    )
    sweep.add_argument(
        "--storm-intensities",
        default="1.0,2.0,4.0",
        help="comma-separated ON-phase rate multipliers (workload mode; "
        "default: 1.0,2.0,4.0)",
    )
    sweep.add_argument("--storm-on-ms", type=int, default=100)
    sweep.add_argument("--storm-off-ms", type=int, default=400)
    sweep.add_argument("--horizon-ms", type=int, default=2000)
    sweep.add_argument(
        "--stream",
        default="",
        help="synthesize only this profile stream (default: all)",
    )
    sweep.add_argument(
        "--server",
        choices=["polling", "deferrable", "background"],
        default="deferrable",
        help="aperiodic server policy (workload mode; default: deferrable)",
    )
    sweep.add_argument("--server-capacity-us", type=int, default=2000)
    sweep.add_argument("--server-period-us", type=int, default=10000)
    sweep.add_argument(
        "--hard-tasks",
        type=int,
        default=4,
        help="hard periodic tasks generated alongside the aperiodic load "
        "(workload mode; 0 = none)",
    )
    sweep.add_argument("--hard-utilization", type=float, default=0.5)
    engine_flags(sweep)
    sweep.set_defaults(fn=_cmd_sweep)

    measure = sub.add_parser(
        "measure", help="measure queue-operation costs (paper Section 3)"
    )
    measure.add_argument("--rounds", type=int, default=2000)
    measure.set_defaults(fn=_cmd_measure)

    calibrate = sub.add_parser(
        "calibrate",
        help="fit overhead-model constants (delta/theta, release/sch/"
        "cnt_swth) from this machine's instrumented micro-benchmarks",
    )
    calibrate.add_argument("--rounds", type=int, default=400)
    calibrate.add_argument("--scheduler-rounds", type=int, default=10)
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument(
        "--out",
        help="write the calibration JSON here (consumed by "
        "--overheads calib:<file>)",
    )
    calibrate.set_defaults(fn=_cmd_calibrate)

    workload = sub.add_parser(
        "workload",
        help="trace ingest, profile fitting, and scenario synthesis",
    )
    wsub = workload.add_subparsers(dest="workload_command", required=True)

    wimport = wsub.add_parser(
        "import-csv", help="ingest an arrival/work CSV into a trace"
    )
    wimport.add_argument("input", help="CSV file")
    wimport.add_argument("--out", required=True, help="trace JSONL output")
    wimport.add_argument(
        "--stream", default="", help="stream name for unlabeled rows"
    )
    wimport.set_defaults(fn=_cmd_workload)

    wazure = wsub.add_parser(
        "import-azure",
        help="ingest an Azure-Functions-style per-bin invocation log",
    )
    wazure.add_argument("input", help="invocation-count CSV")
    wazure.add_argument("--out", required=True, help="trace JSONL output")
    wazure.add_argument(
        "--max-streams",
        type=int,
        default=0,
        help="keep only the N busiest functions (0 = all)",
    )
    wazure.set_defaults(fn=_cmd_workload)

    wfit = wsub.add_parser(
        "fit", help="fit a workload profile from a trace"
    )
    wfit.add_argument("input", help="trace JSONL (from import-*)")
    wfit.add_argument("--out", required=True, help="profile JSON output")
    wfit.set_defaults(fn=_cmd_workload)

    wsynth = wsub.add_parser(
        "synth", help="synthesize a scenario from a fitted profile"
    )
    wsynth.add_argument("input", help="profile JSON (from fit)")
    wsynth.add_argument("--seed", type=int, default=0)
    wsynth.add_argument("--scale", type=float, default=1.0)
    wsynth.add_argument("--horizon-ms", type=int, default=2000)
    wsynth.add_argument("--storm-intensity", type=float, default=1.0)
    wsynth.add_argument("--storm-on-ms", type=int, default=100)
    wsynth.add_argument("--storm-off-ms", type=int, default=400)
    wsynth.set_defaults(fn=_cmd_workload)

    profile = sub.add_parser(
        "profile",
        help="metrics-instrumented simulation: per-primitive overhead "
        "anatomy (rls/sch/cnt1/cnt2), queue-op cost by N, simulator "
        "self-profile",
    )
    profile.add_argument(
        "--tasks",
        help="task-set JSON file (single-scenario mode; omit to profile "
        "a generated sweep)",
    )
    profile.add_argument("--cores", type=int, default=4)
    profile.add_argument("--algorithm", default="FP-TS")
    profile.add_argument(
        "--overheads", default="paper", help="zero | paper | paper*<factor>"
    )
    profile.add_argument("--duration-ms", type=int, default=1000)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--faults",
        metavar="FILE",
        help="fault-plan JSON to profile under (single mode only)",
    )
    profile.add_argument(
        "--overrun-policy",
        choices=list(OVERRUN_POLICIES),
        default="run-on",
    )
    profile.add_argument(
        "--sets",
        type=int,
        default=4,
        help="generated scenarios in sweep mode (default: 4)",
    )
    profile.add_argument("--n-tasks", type=int, default=12)
    profile.add_argument(
        "--utilization",
        type=float,
        default=0.75,
        help="normalized per-core utilization of generated sets "
        "(default: 0.75)",
    )
    profile.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="json: full profile report; prom: Prometheus text "
        "exposition of the raw metrics (default: json)",
    )
    profile.add_argument(
        "--out", metavar="FILE", help="write the report here instead of stdout"
    )
    engine_flags(profile)
    profile.set_defaults(fn=_cmd_profile)

    breakdown = sub.add_parser(
        "breakdown", help="breakdown-utilization distributions"
    )
    breakdown.add_argument("--cores", type=int, default=4)
    breakdown.add_argument("--n-tasks", type=int, default=12)
    breakdown.add_argument("--sets", type=int, default=20)
    breakdown.add_argument("--seed", type=int, default=31)
    breakdown.add_argument("--overheads", default="zero")
    breakdown.add_argument("--algorithms", default="FP-TS,FFD,WFD")
    breakdown.set_defaults(fn=_cmd_breakdown)

    campaign = sub.add_parser(
        "campaign", help="factorial acceptance campaign with CSV output"
    )
    campaign.add_argument("--core-counts", default="2,4")
    campaign.add_argument("--task-counts", default="8,16")
    campaign.add_argument("--algorithms", default="FP-TS,FFD,WFD")
    campaign.add_argument("--sets", type=int, default=15)
    campaign.add_argument(
        "--criteria",
        action="store_true",
        help="also measure the multi-criteria axes (preemptions, "
        "migrations, spare balance, packing slack, power, energy per "
        "hyperperiod) and print per-axis pivots plus a Pareto front",
    )
    campaign.add_argument("--csv", help="write long-format CSV here")
    engine_flags(campaign)
    campaign.set_defaults(fn=_cmd_campaign)

    serve = sub.add_parser(
        "serve",
        help="run the schedulability service: admission queries and "
        "campaign jobs over HTTP, with load shedding, circuit "
        "breaking, and a degradation ladder (docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8337)
    serve.add_argument(
        "--shards",
        type=int,
        default=2,
        help="worker shards; queries route by unit fingerprint "
        "(default: 2)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="max concurrently admitted requests; beyond it requests "
        "are shed with 429 (default: 64)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="token-bucket admission rate in requests/second "
        "(default: 0, disabled)",
    )
    serve.add_argument(
        "--burst",
        type=int,
        default=8,
        help="token-bucket burst capacity (default: 8)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=5000,
        help="default per-request deadline budget, propagated to the "
        "engine's per-unit timeouts (default: 5000)",
    )
    serve.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit budget for campaign jobs (default: none)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=1,
        help="per-unit retries for campaign jobs (default: 1)",
    )
    serve.add_argument(
        "--data-dir",
        default=".repro-service",
        help="service state: job specs, journals, results, cache "
        "(default: .repro-service)",
    )
    serve.add_argument(
        "--cache",
        metavar="DIR",
        help="admission/result cache directory "
        "(default: <data-dir>/cache)",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for breaker backoff jitter (default: 0)",
    )
    serve.set_defaults(fn=_cmd_serve)

    verify = sub.add_parser(
        "verify",
        help="differential verification: invariant oracles, metamorphic "
        "harness, cross-implementation checks",
    )
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=3)
    verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="fan harness trials out over worker processes "
        "(default: 1, serial; the failure set is identical)",
    )
    verify.add_argument(
        "--out",
        default="verify-failures",
        help="directory for shrunk JSON repros (default: verify-failures)",
    )
    verify.add_argument(
        "--replay",
        metavar="FILE",
        help="re-run one saved repro instead of the harness",
    )
    verify.add_argument(
        "--skip-differential",
        action="store_true",
        help="run only the random harness (skip the eleven "
        "differential pairs)",
    )
    verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
