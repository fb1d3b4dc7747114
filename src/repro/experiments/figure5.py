"""Figure 5: accepted utilization ratio for all 15 valid combinations.

Section 7.1 recipe: 10 random task sets (4 aperiodic + 5 periodic tasks
each, subtasks/task ~ U{1..5}, deadlines ~ U[250 ms, 10 s], per-processor
synthetic utilization 0.5, one replica per subtask), each run under every
valid combination; the figure reports the mean accepted utilization ratio
per combination.

Arrival plans are shared across combinations for the same task set (the
RNG streams are keyed independently of configuration), so the comparison
is paired exactly like the paper's "ran 10 task sets using each
combination and compared them".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.api.suite import ExperimentSuite, combo_grid, fold_combo_grid
from repro.core.cost_model import CostModel
from repro.core.strategies import StrategyCombo, valid_combinations
from repro.experiments.report import bar_chart
from repro.json_checks import encode
from repro.numeric import ordered_sum
from repro.sim.rng import RngRegistry
from repro.workloads.generator import RandomWorkloadParams, generate_random_workload
from repro.workloads.model import Workload


@dataclass
class Figure5Result:
    """Mean (and per-set) accepted utilization ratio per combination."""

    duration: float
    n_sets: int
    per_combo: Dict[str, float] = field(default_factory=dict)
    per_combo_sets: Dict[str, List[float]] = field(default_factory=dict)
    deadline_misses: int = 0

    def best_combo(self) -> str:
        return max(self.per_combo, key=self.per_combo.get)

    def by_ir_strategy(self) -> Dict[str, float]:
        """Mean ratio grouped by the IR strategy letter (* X *)."""
        groups: Dict[str, List[float]] = {"N": [], "T": [], "J": []}
        for label, value in self.per_combo.items():
            groups[label.split("_")[1]].append(value)
        return {k: ordered_sum(v) / len(v) for k, v in groups.items() if v}

    def format(self) -> str:
        return bar_chart(
            self.per_combo,
            title=(
                "Figure 5 — Average accepted utilization ratio "
                f"({self.n_sets} random task sets, {self.duration:.0f}s each)"
            ),
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "experiment": "figure5",
            **encode(self, Figure5Result),
            "by_ir_strategy": self.by_ir_strategy(),
        }


def build_figure5_suite(
    n_sets: int = 10,
    duration: float = 60.0,
    seed: int = 2008,
    cost_model: Optional[CostModel] = None,
    params: Optional[RandomWorkloadParams] = None,
    combos: Optional[Sequence[StrategyCombo]] = None,
    aperiodic_interarrival_factor: float = 2.0,
    workloads: Optional[Sequence[Workload]] = None,
) -> ExperimentSuite:
    """The Figure 5 grid as a declarative :class:`ExperimentSuite`."""
    combos = list(combos) if combos is not None else valid_combinations()
    if workloads is None:
        gen_rng = RngRegistry(seed).stream("task_sets")
        workloads = [
            generate_random_workload(gen_rng, params) for _ in range(n_sets)
        ]
    return combo_grid(
        "figure5",
        list(workloads),
        combos,
        seed,
        duration,
        cost_model,
        aperiodic_interarrival_factor,
    )


def run_figure5(
    n_sets: int = 10,
    duration: float = 60.0,
    seed: int = 2008,
    cost_model: Optional[CostModel] = None,
    params: Optional[RandomWorkloadParams] = None,
    combos: Optional[Sequence[StrategyCombo]] = None,
    aperiodic_interarrival_factor: float = 2.0,
    workloads: Optional[Sequence[Workload]] = None,
    n_workers: Optional[int] = None,
) -> Figure5Result:
    """Run the Figure 5 experiment.

    Parameters mirror the paper's setup; ``duration`` defaults to 60 s
    (the paper ran 5 minutes — pass ``duration=300`` for paper scale).
    ``workloads`` overrides generation for tests that need fixed sets.
    The (combo, task set) cells are independent simulations fanned out
    over ``n_workers`` processes (see :mod:`repro.experiments.runner`);
    results are bit-identical to a serial run for every worker count.
    """
    combos = list(combos) if combos is not None else valid_combinations()
    if workloads is not None:
        workloads = list(workloads)
        n_sets = len(workloads)
    suite = build_figure5_suite(
        n_sets=n_sets,
        duration=duration,
        seed=seed,
        cost_model=cost_model,
        params=params,
        combos=combos,
        aperiodic_interarrival_factor=aperiodic_interarrival_factor,
        workloads=workloads,
    )
    result = Figure5Result(duration=duration, n_sets=n_sets)
    result.per_combo_sets, result.deadline_misses = fold_combo_grid(
        suite.run_results(n_workers), combos, n_sets
    )
    for label, ratios in result.per_combo_sets.items():
        result.per_combo[label] = ordered_sum(ratios) / len(ratios)
    return result
