"""Figure 6: load-balancing strategy comparison on imbalanced workloads.

Section 7.2 recipe: three loaded processors at synthetic utilization 0.7
hosting all subtasks (1-3 per task), two replica-only processors.  The 15
combinations divide into 5 groups of three adjacent bars; within each
group AC and IR are fixed while LB goes none -> per task -> per job.  The
paper's finding: LB per task is a large improvement over no LB, while per
job adds little on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.suite import ExperimentSuite, combo_grid, fold_combo_grid
from repro.core.cost_model import CostModel
from repro.core.strategies import StrategyCombo, valid_combinations
from repro.experiments.report import bar_chart
from repro.numeric import ordered_sum
from repro.sim.rng import RngRegistry
from repro.workloads.imbalanced import (
    ImbalancedWorkloadParams,
    generate_imbalanced_workload,
)
from repro.workloads.model import Workload


@dataclass
class Figure6Result:
    """Per-combination ratios plus the LB-group view of the figure."""

    duration: float
    n_sets: int
    per_combo: Dict[str, float] = field(default_factory=dict)
    per_combo_sets: Dict[str, List[float]] = field(default_factory=dict)
    deadline_misses: int = 0

    def lb_groups(self) -> Dict[str, Tuple[float, float, float]]:
        """For each fixed (AC, IR) pair: ratios for LB = N, T, J."""
        groups: Dict[str, Tuple[float, float, float]] = {}
        pairs = sorted(
            {tuple(label.split("_")[:2]) for label in self.per_combo}
        )
        for ac, ir in pairs:
            key = f"{ac}_{ir}"
            groups[key] = tuple(
                self.per_combo[f"{ac}_{ir}_{lb}"] for lb in ("N", "T", "J")
            )
        return groups

    def lb_means(self) -> Dict[str, float]:
        """Mean ratio by LB strategy letter across all (AC, IR) groups."""
        sums = {"N": 0.0, "T": 0.0, "J": 0.0}
        count = 0
        for _key, (n, t, j) in self.lb_groups().items():
            sums["N"] += n
            sums["T"] += t
            sums["J"] += j
            count += 1
        return {k: v / count for k, v in sums.items()} if count else {}

    def format(self) -> str:
        return bar_chart(
            self.per_combo,
            title=(
                "Figure 6 — LB strategy comparison, imbalanced workload "
                f"({self.n_sets} task sets, {self.duration:.0f}s each)"
            ),
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "experiment": "figure6",
            "duration": self.duration,
            "n_sets": self.n_sets,
            "per_combo": dict(self.per_combo),
            "per_combo_sets": {k: list(v) for k, v in self.per_combo_sets.items()},
            "deadline_misses": self.deadline_misses,
            "lb_means": self.lb_means(),
        }


def build_figure6_suite(
    n_sets: int = 10,
    duration: float = 60.0,
    seed: int = 2008,
    cost_model: Optional[CostModel] = None,
    params: Optional[ImbalancedWorkloadParams] = None,
    combos: Optional[Sequence[StrategyCombo]] = None,
    aperiodic_interarrival_factor: float = 2.0,
    workloads: Optional[Sequence[Workload]] = None,
) -> ExperimentSuite:
    """The Figure 6 grid as a declarative :class:`ExperimentSuite`."""
    combos = list(combos) if combos is not None else valid_combinations()
    if workloads is None:
        gen_rng = RngRegistry(seed).stream("task_sets")
        workloads = [
            generate_imbalanced_workload(gen_rng, params) for _ in range(n_sets)
        ]
    return combo_grid(
        "figure6",
        list(workloads),
        combos,
        seed,
        duration,
        cost_model,
        aperiodic_interarrival_factor,
    )


def run_figure6(
    n_sets: int = 10,
    duration: float = 60.0,
    seed: int = 2008,
    cost_model: Optional[CostModel] = None,
    params: Optional[ImbalancedWorkloadParams] = None,
    combos: Optional[Sequence[StrategyCombo]] = None,
    aperiodic_interarrival_factor: float = 2.0,
    workloads: Optional[Sequence[Workload]] = None,
    n_workers: Optional[int] = None,
) -> Figure6Result:
    """Run the Figure 6 experiment (imbalanced workloads).

    Cells fan out over ``n_workers`` processes with bit-identical results
    to a serial run (see :mod:`repro.experiments.runner`).
    """
    combos = list(combos) if combos is not None else valid_combinations()
    if workloads is not None:
        workloads = list(workloads)
        n_sets = len(workloads)
    suite = build_figure6_suite(
        n_sets=n_sets,
        duration=duration,
        seed=seed,
        cost_model=cost_model,
        params=params,
        combos=combos,
        aperiodic_interarrival_factor=aperiodic_interarrival_factor,
        workloads=workloads,
    )
    result = Figure6Result(duration=duration, n_sets=n_sets)
    result.per_combo_sets, result.deadline_misses = fold_combo_grid(
        suite.run_results(n_workers), combos, n_sets
    )
    for label, ratios in result.per_combo_sets.items():
        result.per_combo[label] = ordered_sum(ratios) / len(ratios)
    return result
