"""Tests for the CLI and the JSON task-set I/O."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.model.io import (
    load_taskset,
    save_taskset,
    taskset_from_dict,
    taskset_to_dict,
)
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.model.time import MS, US


@pytest.fixture
def workload_file(tmp_path):
    path = tmp_path / "workload.json"
    data = {
        "tasks": [
            {"name": "video", "wcet_us": 5500, "period_us": 10000},
            {"name": "audio", "wcet_us": 5500, "period_us": 10000},
            {"name": "ctrl", "wcet_us": 5500, "period_us": 10000},
        ]
    }
    path.write_text(json.dumps(data))
    return path


class TestIo:
    def test_roundtrip(self, tmp_path):
        ts = TaskSet(
            [
                Task("a", wcet=2 * MS, period=10 * MS, wss=128 * 1024),
                Task("b", wcet=500 * US, period=5 * MS, deadline=4 * MS),
            ]
        )
        path = tmp_path / "ts.json"
        save_taskset(ts, path)
        loaded = load_taskset(path)
        assert loaded.names() == ["a", "b"]
        assert loaded.by_name("a").wcet == 2 * MS
        assert loaded.by_name("a").wss == 128 * 1024
        assert loaded.by_name("b").deadline == 4 * MS

    def test_defaults(self):
        ts = taskset_from_dict(
            {"tasks": [{"wcet_us": 100, "period_us": 1000}]}
        )
        task = ts[0]
        assert task.name == "t000"
        assert task.deadline == task.period
        assert task.wss == 64 * 1024

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            taskset_from_dict({"tasks": [{"wcet_us": 100}]})

    def test_missing_tasks_key_rejected(self):
        with pytest.raises(ValueError):
            taskset_from_dict({})

    def test_to_dict(self):
        ts = TaskSet([Task("x", wcet=1 * MS, period=2 * MS)])
        data = taskset_to_dict(ts)
        assert data["tasks"][0]["wcet_us"] == 1000.0


class TestCli:
    def test_list_algorithms(self, capsys):
        assert main(["list-algorithms"]) == 0
        out = capsys.readouterr().out
        assert "FP-TS" in out and "FFD" in out and "WFD" in out

    def test_generate(self, tmp_path, capsys):
        out_file = tmp_path / "gen.json"
        code = main(
            [
                "generate",
                "--n-tasks",
                "6",
                "--utilization",
                "2.0",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        loaded = load_taskset(out_file)
        assert len(loaded) == 6

    def test_analyze_accepts(self, workload_file, capsys):
        code = main(
            [
                "analyze",
                "--tasks",
                str(workload_file),
                "--cores",
                "2",
                "--algorithm",
                "FP-TS",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accepted" in out
        assert "worst-case response times" in out

    def test_analyze_rejects(self, workload_file, capsys):
        code = main(
            [
                "analyze",
                "--tasks",
                str(workload_file),
                "--cores",
                "2",
                "--algorithm",
                "FFD",
            ]
        )
        assert code == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_simulate(self, workload_file, capsys):
        code = main(
            [
                "simulate",
                "--tasks",
                str(workload_file),
                "--cores",
                "2",
                "--algorithm",
                "FP-TS",
                "--duration-ms",
                "100",
                "--gantt",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "misses=0" in out
        assert "core0" in out  # the Gantt

    def test_sweep(self, capsys):
        code = main(
            [
                "sweep",
                "--cores",
                "2",
                "--n-tasks",
                "6",
                "--sets",
                "5",
                "--algorithms",
                "FFD,WFD",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FFD" in out and "U/m" in out

    def test_measure(self, capsys):
        code = main(["measure", "--rounds", "100"])
        assert code == 0
        assert "ready" in capsys.readouterr().out

    def test_bad_overhead_spec(self, workload_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "analyze",
                    "--tasks",
                    str(workload_file),
                    "--overheads",
                    "banana",
                ]
            )

    @pytest.mark.parametrize("spec", ["paper*x", "paper*-1", "paper*inf"])
    def test_bad_overhead_factor_exits_cleanly(self, spec):
        with pytest.raises(SystemExit, match="bad overhead factor"):
            main(["sweep", "--sets", "1", "--overheads", spec])

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["analyze", "--tasks", "{missing}"], "--tasks: cannot read"),
            (["analyze", "--tasks", "{malformed}"], "Expecting value"),
            (["analyze", "--tasks", "{negative}"], "wcet must be positive"),
            (["analyze", "--tasks", "{not_object}"], "expected an object"),
            (["simulate", "--tasks", "{missing}"], "--tasks: cannot read"),
            (["simulate", "--tasks", "{malformed}"], "Expecting value"),
            (["profile", "--tasks", "{missing}"], "--tasks: cannot read"),
            (
                ["simulate", "--tasks", "{workload}", "--assignment",
                 "{missing}"],
                "--assignment: cannot read",
            ),
            (
                ["simulate", "--tasks", "{workload}", "--duration-ms", "0"],
                "--duration-ms must be at least 1",
            ),
            (
                ["simulate", "--tasks", "{workload}", "--duration-ms", "-5"],
                "--duration-ms must be at least 1",
            ),
            (
                ["generate", "--utilization", "1", "--out",
                 "{missing_dir}/ws.json"],
                "--out: cannot write",
            ),
            (
                ["generate", "--n-tasks", "0", "--utilization", "1",
                 "--out", "{out}"],
                "--n-tasks must be at least 1",
            ),
            (
                ["generate", "--utilization", "-1", "--out", "{out}"],
                "--utilization must be positive",
            ),
            (
                ["generate", "--utilization", "9", "--n-tasks", "4",
                 "--out", "{out}"],
                "cannot fit total utilization",
            ),
            (["measure", "--rounds", "0"], "--rounds must be at least 1"),
            (["measure", "--rounds", "-3"], "--rounds must be at least 1"),
            (
                ["simulate", "--tasks", "{workload}", "--assignment",
                 "{json_list}"],
                "--assignment .*: 'list' object",
            ),
            (
                ["simulate", "--tasks", "{workload}", "--assignment",
                 "{unknown_class}"],
                "unknown sched_class 'lifo'",
            ),
        ],
    )
    def test_bad_input_exits_cleanly(
        self, argv, match, tmp_path, workload_file
    ):
        """Bad files and flag values end in a one-line SystemExit
        message (exit status 1), never a traceback."""
        files = {
            "malformed": "not json",
            "negative": json.dumps(
                {"tasks": [{"wcet_us": -1, "period_us": 1000}]}
            ),
            "not_object": json.dumps({"tasks": [7]}),
            "json_list": "[]",
            "unknown_class": json.dumps(
                {"n_cores": 1, "sched_class": "lifo", "entries": []}
            ),
        }
        paths = {
            "missing": tmp_path / "absent.json",
            "missing_dir": tmp_path / "absent-dir",
            "out": tmp_path / "out.json",
            "workload": workload_file,
        }
        for key, text in files.items():
            paths[key] = tmp_path / f"{key}.json"
            paths[key].write_text(text)
        with pytest.raises(SystemExit, match=match) as info:
            main([arg.format(**paths) for arg in argv])
        assert isinstance(info.value.code, str)
        assert "\n" not in info.value.code

    def test_scaled_overheads(self, workload_file, capsys):
        code = main(
            [
                "analyze",
                "--tasks",
                str(workload_file),
                "--cores",
                "2",
                "--overheads",
                "paper*0.5",
            ]
        )
        assert code == 0

    def test_breakdown_command(self, capsys):
        code = main(
            [
                "breakdown",
                "--cores",
                "2",
                "--n-tasks",
                "5",
                "--sets",
                "3",
                "--algorithms",
                "FFD,WFD",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean U/m" in out

    def test_campaign_command(self, tmp_path, capsys):
        csv_path = tmp_path / "campaign.csv"
        code = main(
            [
                "campaign",
                "--core-counts",
                "2",
                "--task-counts",
                "5",
                "--algorithms",
                "FFD",
                "--sets",
                "3",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "algorithm/n_cores" in out
