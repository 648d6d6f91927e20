"""An assignment carries the scheduling class it is correct under.

:func:`~repro.experiments.algorithms.build_assignment` stamps the
algorithm's class (:attr:`AlgorithmSpec.sched_class`) on the assignment,
and :class:`~repro.kernel.sim.KernelSim` runs that class unless told
otherwise.  So the natural call ``KernelSim(build_assignment(alg, ...),
model, horizon)`` dispatches C=D and P-EDF under EDF, runs the global
tests' shared-queue assignment under their global class, and every
accepted set meets its deadlines at zero overheads.  Saved assignments
keep the class; files written before the field existed take it from
``--algorithm``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.algorithms import ALGORITHMS, build_assignment
from repro.kernel.sim import KernelSim
from repro.model.generator import TaskSetGenerator
from repro.model.io import assignment_from_dict, assignment_to_dict
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.overhead.model import OverheadModel

#: 4 cores, 8 tasks, U/m in {0.3, 0.5, 0.7, 0.9}, 10 sets each, seed 7.
_GENERATOR = TaskSetGenerator(n_tasks=8, seed=7)
GRID = [
    _GENERATOR.generate(share * 4)
    for share in (0.3, 0.5, 0.7, 0.9)
    for _ in range(10)
]

#: Two cores at full utilization: C=D packs each pair onto one core,
#: which EDF schedules and rate-monotonic FP does not.
EDF_ONLY_TASKS = [
    {"name": "a", "wcet_us": 5000, "period_us": 10000},
    {"name": "b", "wcet_us": 7000, "period_us": 14000},
    {"name": "c", "wcet_us": 3000, "period_us": 6000},
    {"name": "d", "wcet_us": 4000, "period_us": 8000},
]


@pytest.fixture
def edf_only_file(tmp_path):
    path = tmp_path / "edf_only.json"
    path.write_text(json.dumps({"tasks": EDF_ONLY_TASKS}), encoding="utf-8")
    return path


def _cd_assignment():
    taskset = TaskSet(
        [
            Task(t["name"], wcet=t["wcet_us"] * 1000,
                 period=t["period_us"] * 1000)
            for t in EDF_ONLY_TASKS
        ]
    ).assign_rate_monotonic()
    assignment = build_assignment("C=D", taskset, 2, OverheadModel.zero())
    assert assignment is not None
    return assignment


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_natural_call_meets_deadlines_under_the_algorithms_class(algorithm):
    model = OverheadModel.zero()
    accepted = 0
    for taskset in GRID:
        assignment = build_assignment(algorithm, taskset, 4, model)
        if assignment is None:
            continue
        accepted += 1
        assert assignment.sched_class == ALGORITHMS[algorithm].sched_class
        result = KernelSim(
            assignment, model, 2 * max(task.period for task in taskset)
        ).run()
        assert result.sched_class == assignment.sched_class
        assert result.releases > 0
        assert result.misses == [], result.misses[:3]
    assert accepted


def test_explicit_class_overrides_the_assignment():
    assignment = _cd_assignment()
    result = KernelSim(
        assignment, OverheadModel.zero(), 200 * MS, sched_class="fp"
    ).run()
    assert result.sched_class == "fp"
    assert result.misses


def test_saved_assignment_round_trips_the_class():
    assignment = _cd_assignment()
    data = assignment_to_dict(assignment)
    assert data["sched_class"] == "edf"
    assert assignment_from_dict(data).sched_class == "edf"
    del data["sched_class"]
    assert assignment_from_dict(data).sched_class == "fp"
    data["sched_class"] = "lifo"
    with pytest.raises(ValueError, match="unknown sched_class"):
        assignment_from_dict(data)


def _simulate_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_cli_old_format_cd_file_still_simulates_under_edf(
    tmp_path, edf_only_file, capsys
):
    """A file saved before assignments carried their class runs under
    ``--algorithm``'s class."""
    common = ["--tasks", str(edf_only_file), "--cores", "2",
              "--overheads", "zero"]
    saved = tmp_path / "assignment.json"
    assert main(["analyze", *common, "--algorithm", "C=D",
                 "--save-assignment", str(saved)]) == 0
    data = json.loads(saved.read_text())
    assert data["sched_class"] == "edf"
    del data["sched_class"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data))
    capsys.readouterr()
    run = ["simulate", *common, "--algorithm", "C=D", "--duration-ms", "200"]
    outputs = [
        _simulate_cli([*run, "--assignment", str(path)], capsys)
        for path in (saved, old)
    ]
    explicit = _simulate_cli(
        [*run, "--assignment", str(old), "--sched-class", "edf"], capsys
    )
    assert outputs[0] == outputs[1] == explicit
    assert outputs[0][0] == 0 and "misses=0" in outputs[0][1]
    code, _out = _simulate_cli(
        [*run, "--assignment", str(old), "--sched-class", "fp"], capsys
    )
    assert code == 2


def test_profile_reports_what_simulate_reports(edf_only_file, capsys):
    common = ["--tasks", str(edf_only_file), "--cores", "2",
              "--algorithm", "C=D", "--overheads", "zero",
              "--duration-ms", "200"]
    assert main(["simulate", *common]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    fields = dict(
        part.split("=") for part in line.split(": ", 1)[1].split()
    )
    assert main(["profile", *common]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["misses"] == int(fields["misses"]) == 0
    assert summary["releases"] == int(fields["releases"]) > 0


def test_analyze_prints_response_times_only_for_fp(edf_only_file, capsys):
    common = ["--tasks", str(edf_only_file), "--cores", "2",
              "--overheads", "zero"]
    assert main(["analyze", *common, "--algorithm", "C=D"]) == 0
    out = capsys.readouterr().out
    assert "C=D: accepted" in out
    assert "R=" not in out
    assert "edf scheduling class" in out
    assert main(["analyze", *common, "--algorithm", "P-EDF"]) == 0
    assert "R=" not in capsys.readouterr().out
