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

Heterogeneous grids (sensitivity sweeps over task-set size, disturbance
grids mixing long and short runs) are dispatched **cost-ordered**: cells
are submitted longest-first through ``imap_unordered`` — a work-stealing
feed where each worker pulls the next pending cell the moment it goes
idle — and results are restored to submission order before returning.
The expensive cells start first instead of last, so the grid stops
tail-waiting on one slow straggler, while the returned list (and hence
every fold) stays bit-identical to the serial loop.

Experiments submit declarative :class:`~repro.api.scenario.Scenario`
cells through :meth:`repro.api.suite.ExperimentSuite.run`, which
dispatches to :func:`run_cells` here; the ablation, which simulates
nothing, submits its own replay cells
(:func:`repro.experiments.ablation.replay_cell`) directly.
"""

from __future__ import annotations

import multiprocessing
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
    default."""
    if sys.platform == "linux":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def estimate_cell_cost(cell: Tuple) -> float:
    """Relative wall-clock estimate for one run cell.

    Recognizes the two argument shapes that dominate grid runtime —
    declarative :class:`~repro.api.scenario.Scenario` cells (simulated
    duration x workload size) and the ablation's direct replay cells,
    which carry a bare :class:`~repro.workloads.model.Workload` — and
    returns a neutral constant otherwise, which keeps submission order
    for homogeneous grids (descending sort is stable).
    """
    cost = 1.0
    recognized = False
    for arg in cell:
        # Duck-typed to avoid importing the API layer for plain cells.
        workload_source = getattr(arg, "workload", None)
        if workload_source is not None and hasattr(arg, "duration"):
            # A Scenario: duration x task count (explicit workloads embed
            # the task list; generator recipes carry their task counts).
            size = 1
            embedded = getattr(workload_source, "workload", None)
            if embedded is not None:
                size = max(1, len(embedded.tasks))
            else:
                params = getattr(workload_source, "params", None)
                if params is not None:
                    size = max(
                        1,
                        getattr(params, "n_periodic", 0)
                        + getattr(params, "n_aperiodic", 0),
                    )
            cost *= max(arg.duration, 1e-9) * size
            recognized = True
        elif hasattr(arg, "tasks") and hasattr(arg, "app_nodes"):
            # A bare Workload in a direct cell.
            cost *= max(1, len(arg.tasks))
            recognized = True
    return cost if recognized else 1.0


def _indexed_cell(job: Tuple) -> Tuple[int, object]:
    """Pool wrapper: evaluate one cell, tagged with its submission index
    so unordered completion can be restored to submission order."""
    fn, index, cell = job
    return index, fn(*cell)


def run_cells(
    fn: Callable,
    cells: Iterable[Tuple],
    n_workers: Optional[int] = None,
    cost_key: Optional[Callable[[Tuple], float]] = None,
) -> List:
    """Evaluate ``fn(*cell)`` for every cell, in order, possibly in parallel.

    ``fn`` must be a module-level (picklable) function and every cell a
    tuple of picklable arguments.  The result list is ordered like
    ``cells`` regardless of worker scheduling, which is what lets callers
    fold results exactly as their serial loops would.

    Cells are *submitted* longest-estimated-first (``cost_key``, default
    :func:`estimate_cell_cost`) and pulled by idle workers through
    ``imap_unordered`` — results are re-ordered before returning, so the
    scheduling policy is invisible to callers.
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
    if workers <= 1 or len(cell_list) <= 1:
        return [fn(*cell) for cell in cell_list]
    estimate = cost_key or estimate_cell_cost
    order = sorted(
        range(len(cell_list)),
        key=lambda i: estimate(cell_list[i]),
        reverse=True,
    )
    try:
        pool = _pool_context().Pool(workers)
    except (OSError, PermissionError, RuntimeError):
        # No process support in this environment (restricted sandbox);
        # cells are pure functions, so serial evaluation is equivalent.
        return [fn(*cell) for cell in cell_list]
    try:
        results: List = [None] * len(cell_list)
        jobs = [(fn, i, cell_list[i]) for i in order]
        for index, result in pool.imap_unordered(_indexed_cell, jobs, chunksize=1):
            results[index] = result
        return results
    finally:
        pool.close()
        pool.join()
