"""Smoke-run every example under a short duration cap.

The examples are the living documentation of the ``repro.api`` public
surface; an API regression that breaks one of them should fail the build.
Each example honors ``REPRO_EXAMPLE_DURATION`` (simulated seconds), so
the whole sweep stays fast.  The same sweep runs as a dedicated CI job.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_every_example_is_covered():
    """Fail if a new example is added without appearing in the sweep."""
    assert len(EXAMPLES) == 6, EXAMPLES


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs_clean(example):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_EXAMPLE_DURATION"] = "2.0"
    env.setdefault("REPRO_WORKERS", "2")
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / example)],
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, (
        f"{example} failed:\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    assert proc.stdout.strip(), f"{example} printed nothing"
