"""End-to-end fuzzing: random algorithm x random workload x random
simulator configuration, asserting the global invariants that must hold no
matter what:

* accepted assignments validate structurally;
* zero-overhead simulation of an accepted assignment never misses;
* trace invariants hold under every overhead/stochastic configuration;
* time accounting never exceeds the horizon.

Trial count is tunable: ``REPRO_FUZZ_TRIALS=200 pytest -m fuzz`` runs a
deeper sweep (trials only ever extend the seeded sequence, so trial ``k``
is the same workload at every trial count).  Any failure is routed
through the shrinker and written to ``verify-failures/`` as a minimal
replayable repro (``repro verify --replay <file>``).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.model.time import MS

_CONSTRUCTIVE = ["FP-TS", "C=D", "FFD", "WFD", "BFD", "P-EDF", "SPA2"]
_TRIALS = int(os.environ.get("REPRO_FUZZ_TRIALS", "30"))


def _fail_with_repro(scenario, violations, trial):
    """Shrink a failing scenario, persist a replayable repro, fail."""
    from repro.verify import DEFAULT_FAILURE_DIR, shrink_scenario, write_repro

    shrunk = shrink_scenario(scenario)
    path = write_repro(
        shrunk.scenario,
        shrunk.violations or violations,
        out_dir=DEFAULT_FAILURE_DIR,
        original=scenario,
    )
    pytest.fail(
        f"fuzz trial {trial}: {len(violations)} violation(s): "
        f"{violations[:3]}\nminimal repro: {path}"
    )


@pytest.mark.fuzz
@pytest.mark.parametrize("trial", range(_TRIALS))
def test_fuzz_pipeline(trial):
    from repro.verify import Scenario, ScenarioTask, check_scenario

    rng = random.Random(9000 + trial)
    n_cores = rng.choice([2, 4])
    n_tasks = rng.randint(4, 12)
    normalized = rng.uniform(0.3, 0.95)
    algorithm = rng.choice(_CONSTRUCTIVE)
    method = rng.choice(["uunifast", "randfixedsum"])

    from repro.model.generator import TaskSetGenerator

    generator = TaskSetGenerator(
        n_tasks=n_tasks,
        seed=rng.randint(0, 10**6),
        period_min=5 * MS,
        period_max=50 * MS,
        method=method,
    )
    taskset = generator.generate(normalized * n_cores)
    tasks = tuple(
        ScenarioTask(
            name=task.name,
            wcet=task.wcet,
            period=task.period,
            deadline=task.deadline,
            wss=task.wss,
        )
        for task in taskset
    )

    # Zero-overhead worst-case run: must be miss-free (the "clean-miss"
    # oracle) and satisfy every registered invariant checker.
    base = Scenario(
        tasks=tasks,
        n_cores=n_cores,
        algorithm=algorithm,
        overheads="zero",
        duration_factor=8,
    )
    violations = check_scenario(base)
    if violations:
        _fail_with_repro(base, violations, trial)

    # A stochastic, overhead-laden run may miss (overheads were not in
    # the analysis) but must never break an invariant or the accounting.
    stochastic = base.replaced(
        overheads="paper",
        sporadic_jitter=rng.choice([0, MS]),
        execution_variation=rng.choice([0.0, 0.4]),
        sim_seed=trial,
    )
    violations = check_scenario(stochastic)
    if violations:
        _fail_with_repro(stochastic, violations, trial)
