"""Cold-start gate: every entry point loads only the modules it runs.

Each probe runs in a fresh interpreter and reports ``sys.modules``.
None of the entry points below executes the batch kernel (numpy) or the
simulator, so none of them may load them; ``import repro.service.app``
must still load the admission path itself, so the saving cannot come
from moving that cost into the first request.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no entry point below runs.
HEAVY = (
    "numpy",
    "repro.analysis.batch",
    "repro.kernel.sim",
    "repro.kernel.legacy",
)

HELP = (
    "import runpy, sys\n"
    "sys.argv = ['repro', '--help']\n"
    "try:\n"
    "    runpy.run_module('repro.cli', run_name='__main__')\n"
    "except SystemExit:\n"
    "    pass\n"
)

ENTRY_POINTS = {
    "import repro": "import repro",
    "import repro.cli": "import repro.cli",
    "repro --help": HELP,
    "import repro.service.app": "import repro.service.app",
}


def loaded_modules(code: str) -> set:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_entry_point_skips_unused_layers(code):
    loaded = loaded_modules(code)
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))


def test_service_loads_admission_path_before_first_request():
    loaded = loaded_modules("import repro.service.app")
    assert {"repro.experiments.algorithms", "repro.engine.units"} <= loaded
