"""Parallel experiment runner: multiprocessing fan-out over run cells.

Paper-scale experiments are embarrassingly parallel — Figure 5 alone is
15 strategy combinations x 10 task sets of fully independent simulations.
This module fans those (combo, task-set) cells out over a process pool
while keeping results **bit-identical** to a serial run:

* each cell is seeded deterministically from its own coordinates (the
  experiment modules pass the exact per-cell seed the serial loop used),
  so a cell computes the same floats no matter which worker runs it;
* :func:`run_cells` returns results in submission order (``chunksize=1``
  starmap), and the experiment modules fold them in the same order as
  their serial loops, so float accumulation order is unchanged;
* shared RNG streams (workload generation) are drawn in the parent before
  the fan-out, never inside workers.

Worker count resolution: an explicit ``n_workers`` argument wins,
otherwise the ``REPRO_WORKERS`` environment variable, otherwise
``os.cpu_count()``.  ``n_workers=1`` (or a single cell) bypasses the pool
entirely; pool start-up failures (sandboxes without semaphore support)
fall back to the serial path, so the runner degrades instead of crashing.

Cells go out in submission order, one at a time, so an idle worker takes
the next pending cell.  The figure grids are uniform and the ablation is
cheap, so nothing orders cells by cost.

The figures submit declarative :class:`~repro.api.scenario.Scenario`
cells through :meth:`repro.api.suite.ExperimentSuite.run_results`, which
dispatches :func:`repro.api.session.run_scenario` here; the ablation,
which simulates nothing, submits its own replay cells
(:func:`repro.experiments.ablation.replay_cell`) directly.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterable, List, Optional, Tuple

from repro.env import WORKERS_VAR, sanitize_enabled, workers_override
from repro.sanitize import pickle_canary

#: Environment variable overriding the default worker count (re-exported
#: from :mod:`repro.env`, the designated config entry point).
WORKERS_ENV = WORKERS_VAR


def resolve_workers(n_workers: Optional[int] = None) -> int:
    """The worker count to use: argument > $REPRO_WORKERS > cpu_count."""
    if n_workers is None:
        n_workers = workers_override()
        if n_workers is None:
            n_workers = os.cpu_count() or 1
    return max(1, int(n_workers))


def _pool_context():
    """Prefer fork on Linux (cheap, inherits the loaded package); use the
    platform default elsewhere — macOS exposes fork but forked children
    can crash inside system frameworks, which is why spawn is its
    default.  ``multiprocessing`` is imported here, so a serial run never
    loads it."""
    import multiprocessing

    if sys.platform == "linux":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_cells(
    fn: Callable,
    cells: Iterable[Tuple],
    n_workers: Optional[int] = None,
) -> List:
    """Evaluate ``fn(*cell)`` for every cell, in order, possibly in parallel.

    ``fn`` must be a module-level (picklable) function and every cell a
    tuple of picklable arguments.  The result list is ordered like
    ``cells`` regardless of worker scheduling, which is what lets callers
    fold results exactly as their serial loops would.
    """
    cell_list = [tuple(cell) for cell in cells]
    if sanitize_enabled():
        # REPRO_SANITIZE=1: canary every payload *before* choosing a
        # dispatch path, so a cell that could not cross (or could not
        # deterministically cross) a process boundary fails identically
        # whether this run happens to go serial or parallel.
        pickle_canary(fn, f"run_cells function {getattr(fn, '__name__', fn)!r}")
        for index, cell in enumerate(cell_list):
            pickle_canary(cell, f"run_cells cell #{index}")
    workers = min(resolve_workers(n_workers), len(cell_list))
    if workers <= 1:
        return [fn(*cell) for cell in cell_list]
    try:
        pool = _pool_context().Pool(workers)
    except (OSError, PermissionError, RuntimeError):
        # No process support in this environment (restricted sandbox);
        # cells are pure functions, so serial evaluation is equivalent.
        return [fn(*cell) for cell in cell_list]
    try:
        return pool.starmap(fn, cell_list, chunksize=1)
    finally:
        pool.close()
        pool.join()
