"""The metamorphic harness: seeded scenario generation, mutation
soundness, and end-to-end clean runs."""

from __future__ import annotations

import random

import pytest

from repro.model.time import MS
from repro.verify import (
    Scenario,
    ScenarioTask,
    metamorphic_checks,
    random_scenario,
    run_harness,
    run_trial,
)
from repro.verify.harness import GREEDY, TRIAL_SEED_STRIDE


def test_random_scenario_is_deterministic():
    a = random_scenario(random.Random(42))
    b = random_scenario(random.Random(42))
    assert a == b
    c = random_scenario(random.Random(43))
    assert a != c


def test_random_scenario_assignment_class_matches_algorithm():
    from repro.experiments.algorithms import ALGORITHMS, build_assignment

    accepted = 0
    for seed in range(30):
        scenario = random_scenario(random.Random(seed))
        assignment = build_assignment(
            scenario.algorithm,
            scenario.taskset(),
            scenario.n_cores,
            scenario.overhead_model(),
        )
        if assignment is None:
            continue
        accepted += 1
        expected = ALGORITHMS[scenario.algorithm].sched_class
        assert assignment.sched_class == expected
        if scenario.sched_class is not None:
            # The only override drawn: restricted, on FP-class algorithms.
            assert (scenario.sched_class, expected) == ("restricted", "fp")
    assert accepted


def test_scenario_dict_roundtrip():
    for seed in (1, 7, 19):
        scenario = random_scenario(random.Random(seed))
        assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_scenario_rejects_unknown_fields():
    scenario = random_scenario(random.Random(0))
    data = scenario.to_dict()
    data["frobnicate"] = 1
    with pytest.raises(ValueError):
        Scenario.from_dict(data)


def test_run_trial_matches_seed_derivation():
    """A trial's scenario is exactly random_scenario(Random(seed + stride*i))."""
    seed, index = 3, 5
    expected = random_scenario(
        random.Random(seed + TRIAL_SEED_STRIDE * index)
    )
    failure = run_trial(index, seed)
    # The trial should be clean on the current code; and re-drawing the
    # scenario reproduces the trial's input exactly.
    assert failure is None or failure.scenario == expected


def test_harness_clean_on_reference_seed():
    report = run_harness(trials=12, seed=3)
    assert report.ok, [f.violations for f in report.failures]
    assert report.trials == 12


def test_metamorphic_clean_on_handwritten_scenarios():
    accepted = Scenario(
        tasks=(
            ScenarioTask(name="a", wcet=2 * MS, period=10 * MS),
            ScenarioTask(name="b", wcet=5 * MS, period=20 * MS),
            ScenarioTask(name="c", wcet=10 * MS, period=40 * MS),
        ),
        n_cores=2,
        algorithm="FFD",
    )
    assert metamorphic_checks(accepted) == []


def test_metamorphic_add_tiny_exercised_on_rejected_set():
    """An overloaded set is rejected; adding a tiny lowest-priority task
    must keep it rejected for every greedy partitioner."""
    overloaded = tuple(
        ScenarioTask(name=f"t{i}", wcet=9 * MS, period=10 * MS)
        for i in range(4)
    )
    for algorithm in GREEDY:
        scenario = Scenario(
            tasks=overloaded, n_cores=2, algorithm=algorithm
        )
        assert metamorphic_checks(scenario) == []
