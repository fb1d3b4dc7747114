"""Session guard: a test run leaves the tracked files as it found them.

At session start this records ``git status --porcelain
--untracked-files=no`` and a hash of ``git diff``; at the end it fails
the run if either changed.  A tree that was already dirty at start is
fine: only changes made during the run count.  Outside a git checkout
(or without git) the guard does nothing.
"""

from __future__ import annotations

import hashlib
import subprocess
from pathlib import Path
from typing import Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parent

#: The tracked state recorded at session start (None: no guard).
_at_start: Optional[Tuple[str, str]] = None


def _tracked_state() -> Optional[Tuple[str, str]]:
    """(status of tracked files, hash of their diff), or None outside git."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, check=True, timeout=60,
        ).stdout
        diff = subprocess.run(
            ["git", "diff", "--binary"],
            cwd=ROOT, capture_output=True, check=True, timeout=60,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return status.decode(errors="replace"), hashlib.sha256(diff).hexdigest()


def pytest_sessionstart(session: pytest.Session) -> None:
    global _at_start
    _at_start = _tracked_state()


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    if _at_start is None:
        return
    after = _tracked_state()
    if after is None or after == _at_start:
        return
    changed = sorted(set(after[0].splitlines()) ^ set(_at_start[0].splitlines()))
    message = "the test run changed tracked files: " + (
        ", ".join(line.strip() for line in changed) or "git diff differs"
    )
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write("\n")
        reporter.write_line(f"ERROR: {message}", red=True, bold=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
