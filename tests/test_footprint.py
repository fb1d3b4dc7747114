"""What a process loads: numpy only at a batched run's first burst
screen, ``multiprocessing`` only for a fan-out over more than one worker.

The probe runs in a fresh interpreter, because this test process may
already hold both modules.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.env import PURE_PYTHON_VAR

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys

import repro.cli
from repro.api import Burst, Scenario, Session, WorkloadSource
from repro.experiments.runner import run_cells


def loaded():
    return sorted({"numpy", "multiprocessing"} & set(sys.modules))


assert loaded() == [], ("import repro.cli", loaded())
workload = WorkloadSource.random(seed=3)
for engine, combo in (("middleware", "J_J_J"), ("distributed", "J_N_N")):
    Session(
        Scenario(workload=workload, engine=engine, combo=combo, duration=5.0)
    ).run()
assert run_cells(len, [("ab",), ("c",)], n_workers=1) == [2, 1]
assert loaded() == [], ("unbatched runs", loaded())
Session(
    Scenario(
        workload=workload,
        combo="J_J_J",
        duration=5.0,
        arrival_batching=True,
        disturbances=(Burst(time=2.0, jobs=16, spacing=1e-4),),
    )
).run()
print(" ".join(loaded()))
"""


@pytest.mark.parametrize("pure_python", ["", "1"], ids=["numpy", "loop"])
def test_only_a_burst_screen_loads_numpy(pure_python):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    env[PURE_PYTHON_VAR] = pure_python
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    screens_with_numpy = (
        importlib.util.find_spec("numpy") is not None and not pure_python
    )
    assert done.stdout.split() == (["numpy"] if screens_with_numpy else [])
