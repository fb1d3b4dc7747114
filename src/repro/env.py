"""Designated configuration entry point for environment variables.

A scenario is seed-complete: the same Scenario must produce the same
result on any machine, so ambient configuration must never leak into the
engine.  ``repro-lint`` rule RL009 enforces that everything under
``src/repro`` reads the process environment *only* through this module
(and the CLI, which is process-boundary code by definition); every other
layer accepts plain parameters and lets its caller resolve them here.

The helpers below are the complete catalogue of runtime environment
knobs the library honors (example-only knobs such as
``REPRO_EXAMPLE_DURATION`` live with their scripts, which are outside
the library).  Each knob is read at its use site's entry point, never
cached at import.
"""

from __future__ import annotations

import os
from typing import Optional

#: Worker-count override for the experiment fan-out (``run_cells``).
WORKERS_VAR = "REPRO_WORKERS"

#: Force the Python burst-screen loop even when numpy is importable.
PURE_PYTHON_VAR = "REPRO_PURE_PYTHON"

#: Enable the runtime determinism sanitizer (see :mod:`repro.sanitize`).
SANITIZE_VAR = "REPRO_SANITIZE"


def flag(name: str, default: bool = False) -> bool:
    """An on/off env knob: unset means ``default``; ``""`` and ``"0"``
    mean off; anything else means on."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw not in ("", "0")


def pure_python_forced() -> bool:
    """True when ``$REPRO_PURE_PYTHON`` disables the numpy burst screen.

    Read once per ``AubAnalyzer``, at its construction, so an analyzer
    built with the knob on never imports numpy.  Results are
    bit-identical either way (the Python loop screens every
    registration as the matrix product does; see
    ``repro.sched.aub.AubAnalyzer._screen_burst``); the knob exists so
    both paths can be exercised on one machine.
    """
    return flag(PURE_PYTHON_VAR)


def sanitize_enabled() -> bool:
    """True when ``$REPRO_SANITIZE`` turns the runtime sanitizer on.

    Consulted at *object construction* (ledgers, analyzers, RNG
    registries) and at each ``run_cells`` dispatch, never cached at
    import, so one process can build sanitized and unsanitized systems
    side by side (the fault-injection tests rely on this).  The knob is
    process-ambient by design: local worker processes inherit it, but a
    distributed executor must forward it explicitly (see
    docs/LINTING.md, "Runtime sanitizer").
    """
    return flag(SANITIZE_VAR)


def workers_override() -> Optional[int]:
    """``$REPRO_WORKERS`` as an int, or None when unset/empty.

    Raises :class:`ValueError` on a non-integer value — a silently
    ignored typo here would change fan-out behavior without a trace.
    """
    raw = os.environ.get(WORKERS_VAR)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"${WORKERS_VAR} must be an integer, got {raw!r}"
        ) from None
