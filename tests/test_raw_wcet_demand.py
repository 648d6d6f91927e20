"""Simulating an overhead-aware assignment charges its overheads once.

An overhead-aware analysis places *inflated* tasks: each entry budget
reserves room for the kernel work the job causes.  The simulator injects
that kernel work explicitly, so a job must execute only its raw WCET.
The assignment records the raw WCETs
(:attr:`~repro.model.assignment.Assignment.raw_wcet`) and the simulator
takes them as the default demand: the natural call ``KernelSim(
assignment, model)`` equals the explicit raw-WCET run, instead of
charging the overheads a second time through inflated job demands.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.experiments.algorithms import build_assignment
from repro.kernel.sim import KernelSim
from repro.model.io import assignment_from_dict, assignment_to_dict
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS
from repro.overhead.model import OverheadModel
from repro.verify import result_to_canonical


def _paper_fpts():
    """Three 0.55-utilization tasks on two cores: FP-TS splits one."""
    taskset = TaskSet(
        [
            Task(name, wcet=5500_000, period=10 * MS, wss=16 * 1024)
            for name in "abc"
        ]
    ).assign_rate_monotonic()
    model = OverheadModel.paper_core_i7(2)
    assignment = build_assignment("FP-TS", taskset, 2, model)
    assert assignment is not None
    assert assignment.n_split_tasks == 1
    return taskset, model, assignment


def _result(assignment, model, **kwargs):
    result = KernelSim(
        assignment, model, duration=100 * MS, record_trace=True, **kwargs
    ).run()
    return result_to_canonical(result), result.energy


def test_assignment_records_raw_wcet():
    taskset, _model, assignment = _paper_fpts()
    assert assignment.raw_wcet == {task.name: task.wcet for task in taskset}
    for entry in assignment.entries():
        # The premise: every placed task carries an inflated WCET.
        assert entry.task.wcet > assignment.raw_wcet[entry.task.name]


@pytest.mark.parametrize("frequencies", [None, [1, Fraction(3, 4)]])
def test_default_demand_is_the_raw_wcet(frequencies):
    taskset, model, assignment = _paper_fpts()
    implicit = _result(assignment, model, frequencies=frequencies)
    explicit = _result(
        assignment,
        model,
        frequencies=frequencies,
        execution_times={task.name: task.wcet for task in taskset},
    )
    assert implicit == explicit
    inflated = _result(
        assignment,
        model,
        frequencies=frequencies,
        execution_times={
            task.name: task.wcet for task in assignment.tasks
        },
    )
    assert inflated[0]["busy_ns"] != implicit[0]["busy_ns"]


def test_saved_assignment_keeps_the_raw_wcet():
    _taskset, model, assignment = _paper_fpts()
    loaded = assignment_from_dict(assignment_to_dict(assignment))
    assert loaded.raw_wcet == assignment.raw_wcet
    assert _result(loaded, model) == _result(assignment, model)


def test_explicit_demand_still_overrides():
    taskset, model, assignment = _paper_fpts()
    half = {task.name: task.wcet // 2 for task in taskset}
    canonical, _energy = _result(assignment, model, execution_times=half)
    default, _energy = _result(assignment, model)
    assert canonical["busy_ns"] != default["busy_ns"]


def test_cli_simulates_old_assignment_files_with_raw_wcet(tmp_path, capsys):
    """A saved assignment without ``raw_wcet_ns`` (written before the
    field existed) takes the raw WCETs from ``--tasks``."""
    import json

    from repro.cli import main
    from repro.model.io import save_taskset

    taskset, _model, _assignment = _paper_fpts()
    workload = tmp_path / "w.json"
    save_taskset(taskset, workload)
    saved = tmp_path / "assignment.json"
    assert main(
        ["analyze", "--tasks", str(workload), "--cores", "2",
         "--algorithm", "FP-TS", "--overheads", "paper",
         "--save-assignment", str(saved)]
    ) == 0
    data = json.loads(saved.read_text())
    assert all("raw_wcet_ns" in e["task"] for e in data["entries"])
    for entry in data["entries"]:
        del entry["task"]["raw_wcet_ns"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data))
    capsys.readouterr()
    outputs = []
    for path in (saved, old):
        assert main(
            ["simulate", "--tasks", str(workload), "--cores", "2",
             "--overheads", "paper", "--assignment", str(path),
             "--duration-ms", "50"]
        ) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "misses=0" in outputs[0]
