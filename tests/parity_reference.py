"""The direct-construction reference of the API parity tests.

Each cell builds a :class:`~repro.core.middleware.MiddlewareSystem`
itself, as the experiment modules did before they described their runs
as :class:`~repro.api.Scenario` grids; ``tests/test_api_parity.py``
asserts that the scenario path reproduces these numbers exactly.  The
cells are module-level so that :func:`repro.experiments.runner.run_cells`
can fan them out to worker processes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo
from repro.experiments.runner import run_cells


def run_combo_grid(
    workloads: Sequence,
    combos: Sequence,
    seed: int,
    duration: float,
    cost_model,
    aperiodic_interarrival_factor: float,
    n_workers: Optional[int] = None,
):
    """Fan a (combo x task-set) grid out and fold it like the serial loops.

    Every combo runs every workload with the serial per-cell seed
    ``seed + 1000 * set_index``, and results fold in combo-major order.
    Returns ``(per_combo_sets, total_deadline_misses)`` where
    ``per_combo_sets`` maps each combo label to its per-set ratio list.
    """
    cells = [
        (
            workload,
            combo.label,
            seed + 1000 * set_index,
            duration,
            cost_model,
            aperiodic_interarrival_factor,
        )
        for combo in combos
        for set_index, workload in enumerate(workloads)
    ]
    outcomes = iter(run_cells(middleware_cell, cells, n_workers))
    per_combo_sets = {}
    deadline_misses = 0
    for combo in combos:
        ratios = []
        for _workload in workloads:
            ratio, misses = next(outcomes)
            ratios.append(ratio)
            deadline_misses += misses
        per_combo_sets[combo.label] = ratios
    return per_combo_sets, deadline_misses


def _system(
    workload,
    combo_label: str,
    seed: int,
    cost_model,
    aperiodic_interarrival_factor: float,
) -> MiddlewareSystem:
    return MiddlewareSystem(
        workload,
        StrategyCombo.from_label(combo_label),
        cost_model=cost_model,
        seed=seed,
        aperiodic_interarrival_factor=aperiodic_interarrival_factor,
    )


def middleware_cell(
    workload,
    combo_label: str,
    seed: int,
    duration: float,
    cost_model,
    aperiodic_interarrival_factor: float,
) -> Tuple[float, int]:
    """One (combo, task set) simulation; returns (ratio, deadline misses)."""
    system = _system(
        workload, combo_label, seed, cost_model, aperiodic_interarrival_factor
    )
    run = system.run(duration)
    return run.accepted_utilization_ratio, run.deadline_misses


def overhead_cell(
    workload,
    combo_label: str,
    seed: int,
    duration: float,
    cost_model,
    aperiodic_interarrival_factor: float,
):
    """One overhead-measurement run; returns (accounting, comm-delay stats)."""
    system = _system(
        workload, combo_label, seed, cost_model, aperiodic_interarrival_factor
    )
    result = system.run(duration)
    return result.overhead, system.network.delay_stats
