"""ExperimentSuite: declarative grids of cells, one parallel execution path.

A suite is a named, ordered tuple of cells.  Two cell kinds cover every
experiment in the repository:

* :class:`~repro.api.scenario.Scenario` — one simulated run; and
* :class:`MappingCell` — one constant-time Table-1 characteristics
  mapping (no simulation).

``ExperimentSuite.run`` dispatches every cell through the *same*
generalized :func:`repro.experiments.runner.run_cells` multiprocessing
fan-out the PR-1 runner introduced: results come back in cell order, so
callers fold them exactly as a serial loop would — bit-identical for any
worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.scenario import Scenario, WorkloadSource
from repro.api.session import RunResult, Session
from repro.core.cost_model import CostModel
from repro.core.strategies import StrategyCombo
from repro.errors import ConfigurationError
from repro.json_checks import decode, encode
from repro.workloads.model import Workload


@dataclass(frozen=True)
class MappingCell:
    """One Table-1 row: application characteristics -> strategy combo."""

    category: str
    job_skipping: bool
    replicated_components: bool
    state_persistence: bool
    overhead_tolerance: str  # OverheadTolerance value, e.g. "PT"/"PJ"

    JSON_TAG = "mapping"

    def __post_init__(self) -> None:
        # Imported here, as in execute_cell, so that importing the api
        # does not load repro.config.
        from repro.config.characteristics import OverheadTolerance

        values = [t.value for t in OverheadTolerance]
        if self.overhead_tolerance not in values:
            raise ConfigurationError(
                f"mapping cell overhead_tolerance must be one of "
                f"{', '.join(values)}, got {self.overhead_tolerance!r}"
            )


#: A suite cell; in JSON, tagged by its class's ``JSON_TAG``.
Cell = Union[Scenario, MappingCell]


def execute_cell(cell: Cell) -> Any:
    """Evaluate one suite cell (module-level so it pickles to workers).

    Returns a :class:`RunResult` for scenarios, a ``Table1Row`` for
    mapping cells — ``Any`` because the latter lives in the untyped
    experiment layer.
    """
    if isinstance(cell, Scenario):
        return Session(cell).run()
    if isinstance(cell, MappingCell):
        # Local imports keep workers cheap and avoid import cycles.
        from repro.config.characteristics import (
            ApplicationCharacteristics,
            OverheadTolerance,
        )
        from repro.config.mapping import map_characteristics
        from repro.experiments.table1 import Table1Row

        chars = ApplicationCharacteristics(
            job_skipping=cell.job_skipping,
            replicated_components=cell.replicated_components,
            state_persistence=cell.state_persistence,
            overhead_tolerance=OverheadTolerance(cell.overhead_tolerance),
        )
        combo, notes = map_characteristics(chars)
        return Table1Row(
            category=cell.category,
            characteristics=chars,
            combo_label=combo.label,
            notes=tuple(notes),
        )
    raise ConfigurationError(
        f"unknown suite cell type {type(cell).__name__}"
    )


@dataclass(frozen=True)
class ExperimentSuite:
    """A named, declarative grid of cells executed through one runner."""

    name: str
    cells: Tuple[Cell, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("experiment suite needs a name")
        for cell in self.cells:
            if not isinstance(cell, (Scenario, MappingCell)):
                raise ConfigurationError(
                    f"suite {self.name!r}: unknown cell type "
                    f"{type(cell).__name__}"
                )

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def scenarios(self) -> Tuple[Scenario, ...]:
        return tuple(c for c in self.cells if isinstance(c, Scenario))

    def run(self, n_workers: Optional[int] = None) -> List[Any]:
        """Execute every cell (in parallel) and return results in order."""
        from repro.experiments.runner import run_cells

        results: List[Any] = run_cells(
            execute_cell, [(cell,) for cell in self.cells], n_workers
        )
        return results

    def run_results(self, n_workers: Optional[int] = None) -> List[RunResult]:
        """Like :meth:`run` for all-scenario suites, typed as RunResults."""
        # Reject mixed suites before spending any compute on the grid.
        for cell in self.cells:
            if not isinstance(cell, Scenario):
                raise ConfigurationError(
                    f"suite {self.name!r} contains non-scenario cells; "
                    "use .run() instead"
                )
        return self.run(n_workers)

    # -- JSON -------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = encode(self, ExperimentSuite)
        return data

    def to_json_str(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, data: Any) -> "ExperimentSuite":
        """Raises ConfigurationError, naming the JSON path, on any
        malformed ``data``."""
        suite: ExperimentSuite = decode(cls, data)
        return suite


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
