"""ExperimentSuite: a declarative grid of scenarios, one parallel run path.

A suite is a named, ordered tuple of :class:`~repro.api.scenario.Scenario`
cells.  :meth:`ExperimentSuite.run_results` runs each through
:func:`~repro.api.session.run_scenario`, fanned out by
:func:`repro.experiments.runner.run_cells`: results come back in cell
order, so callers fold them exactly as a serial loop would —
bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.scenario import Scenario, WorkloadSource
from repro.api.session import RunResult, run_scenario
from repro.core.cost_model import CostModel
from repro.core.strategies import StrategyCombo
from repro.errors import ConfigurationError
from repro.workloads.model import Workload


@dataclass(frozen=True)
class ExperimentSuite:
    """A named, declarative grid of scenarios executed through one runner."""

    name: str
    cells: Tuple[Scenario, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("experiment suite needs a name")
        for cell in self.cells:
            if not isinstance(cell, Scenario):
                raise ConfigurationError(
                    f"suite {self.name!r}: a cell must be a Scenario, got "
                    f"{type(cell).__name__}"
                )

    @property
    def scenarios(self) -> Tuple[Scenario, ...]:
        return self.cells

    def run_results(self, n_workers: Optional[int] = None) -> List[RunResult]:
        """Run every scenario (in parallel); results in cell order."""
        from repro.experiments.runner import run_cells

        results: List[RunResult] = run_cells(
            run_scenario, [(cell,) for cell in self.cells], n_workers
        )
        return results


# ----------------------------------------------------------------------
# Grid constructors shared by the experiment modules
# ----------------------------------------------------------------------
def combo_grid(
    name: str,
    workloads: Sequence[Workload],
    combos: Sequence[StrategyCombo],
    seed: int,
    duration: float,
    cost_model: Optional[CostModel] = None,
    aperiodic_interarrival_factor: float = 2.0,
) -> ExperimentSuite:
    """The Figures 5/6 grid: every combo x every task set, combo-major.

    Per-cell seeds follow the historical serial loops exactly
    (``seed + 1000 * set_index``), so results are bit-identical to the
    pre-API per-cell runs.
    """
    cells = tuple(
        Scenario(
            workload=WorkloadSource.explicit(workload),
            combo=combo.label,
            duration=duration,
            seed=seed + 1000 * set_index,
            cost_model=cost_model,
            aperiodic_interarrival_factor=aperiodic_interarrival_factor,
            label=f"{combo.label}/set{set_index}",
        )
        for combo in combos
        for set_index, workload in enumerate(workloads)
    )
    return ExperimentSuite(name=name, cells=cells)


def fold_combo_grid(
    results: Sequence[RunResult], combos: Sequence[StrategyCombo], n_sets: int
) -> Tuple[Dict[str, List[float]], int]:
    """Fold :func:`combo_grid` results exactly like the old serial loops:
    combo-major, accumulating deadline misses in submission order."""
    outcomes = iter(results)
    per_combo_sets: Dict[str, List[float]] = {}
    deadline_misses = 0
    for combo in combos:
        ratios: List[float] = []
        for _ in range(n_sets):
            result = next(outcomes)
            ratios.append(result.accepted_utilization_ratio)
            deadline_misses += result.deadline_misses
        per_combo_sets[combo.label] = ratios
    return per_combo_sets, deadline_misses
