"""Sensitivity sweeps — ablations beyond the paper's figures.

Three sweeps quantify the design trade-offs the paper discusses
qualitatively:

* **Load sweep** — accepted utilization ratio vs aperiodic arrival rate
  (the undisclosed free parameter of section 7.1), per combination.
* **Overhead sweep** — ratio vs scaling of all middleware operation
  costs (the overhead-vs-pessimism trade-off of section 4.2).
* **Delay sweep** — ratio and response times vs one-way network delay
  (how far the centralized AC architecture stretches before the
  admission round-trip bites into tight deadlines).

Each sweep is a declarative :class:`~repro.api.suite.ExperimentSuite` of
:class:`~repro.api.scenario.Scenario` cells executed through the shared
multiprocessing runner: every cell carries the same deterministic seed
the old serial loops passed to ``MiddlewareSystem``, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.api.scenario import Scenario, WorkloadSource
from repro.api.suite import ExperimentSuite
from repro.core.cost_model import CostModel
from repro.core.strategies import StrategyCombo
from repro.net.latency import ConstantDelay
from repro.workloads.generator import RandomWorkloadParams


@dataclass
class SweepResult:
    """One sweep: parameter values -> accepted utilization ratios."""

    parameter: str
    combo_label: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def ratios(self) -> List[float]:
        return [r for _x, r in self.points]

    def monotone_decreasing(self, tolerance: float = 0.05) -> bool:
        """Whether the ratio never *rises* by more than ``tolerance`` as
        the stress parameter grows."""
        ratios = self.ratios()
        return all(b <= a + tolerance for a, b in zip(ratios, ratios[1:]))

    def to_json(self) -> dict:
        return {
            "parameter": self.parameter,
            "combo": self.combo_label,
            "points": [list(p) for p in self.points],
        }


def _source(seed: int, params: Optional[RandomWorkloadParams]) -> WorkloadSource:
    # The historical sweeps drew their workload from the "wl" stream.
    return WorkloadSource.random(seed=seed, params=params, stream="wl")


def build_load_suite(
    factors: Sequence[float] = (4.0, 2.0, 1.0, 0.5),
    combo: Optional[StrategyCombo] = None,
    duration: float = 60.0,
    seed: int = 2008,
    params: Optional[RandomWorkloadParams] = None,
) -> ExperimentSuite:
    combo = combo or StrategyCombo.from_label("J_J_J")
    source = _source(seed, params)
    cells = tuple(
        Scenario(
            workload=source,
            combo=combo.label,
            duration=duration,
            seed=seed,
            aperiodic_interarrival_factor=factor,
            label=f"load/{factor}",
        )
        for factor in factors
    )
    return ExperimentSuite(name="sensitivity-load", cells=cells)


def sweep_load(
    factors: Sequence[float] = (4.0, 2.0, 1.0, 0.5),
    combo: StrategyCombo = None,
    duration: float = 60.0,
    seed: int = 2008,
    params: Optional[RandomWorkloadParams] = None,
    n_workers: Optional[int] = None,
) -> SweepResult:
    """Ratio vs aperiodic load (smaller interarrival factor = heavier)."""
    combo = combo or StrategyCombo.from_label("J_J_J")
    suite = build_load_suite(factors, combo, duration, seed, params)
    result = SweepResult("aperiodic_interarrival_factor", combo.label)
    for factor, run in zip(factors, suite.run_results(n_workers)):
        result.points.append((factor, run.accepted_utilization_ratio))
    return result


def build_overhead_suite(
    scales: Sequence[float] = (0.0, 1.0, 10.0, 100.0),
    combo: Optional[StrategyCombo] = None,
    duration: float = 60.0,
    seed: int = 2008,
    params: Optional[RandomWorkloadParams] = None,
) -> ExperimentSuite:
    combo = combo or StrategyCombo.from_label("J_J_J")
    source = _source(seed, params)
    cells = tuple(
        Scenario(
            workload=source,
            combo=combo.label,
            duration=duration,
            seed=seed,
            cost_model=(
                CostModel.zero() if scale == 0 else CostModel().scaled(scale)
            ),
            label=f"overhead/{scale}",
        )
        for scale in scales
    )
    return ExperimentSuite(name="sensitivity-overhead", cells=cells)


def sweep_overhead(
    scales: Sequence[float] = (0.0, 1.0, 10.0, 100.0),
    combo: StrategyCombo = None,
    duration: float = 60.0,
    seed: int = 2008,
    params: Optional[RandomWorkloadParams] = None,
    n_workers: Optional[int] = None,
) -> SweepResult:
    """Ratio vs middleware operation-cost scaling."""
    combo = combo or StrategyCombo.from_label("J_J_J")
    suite = build_overhead_suite(scales, combo, duration, seed, params)
    result = SweepResult("cost_scale", combo.label)
    for scale, run in zip(scales, suite.run_results(n_workers)):
        result.points.append((scale, run.accepted_utilization_ratio))
    return result


@dataclass
class DelaySweepPoint:
    delay: float
    accepted_utilization_ratio: float
    mean_response: float
    deadline_misses: int


def build_delay_suite(
    delays: Sequence[float] = (0.0003, 0.001, 0.01, 0.05),
    combo: Optional[StrategyCombo] = None,
    duration: float = 60.0,
    seed: int = 2008,
    params: Optional[RandomWorkloadParams] = None,
) -> ExperimentSuite:
    combo = combo or StrategyCombo.from_label("J_J_J")
    source = _source(seed, params)
    cells = tuple(
        Scenario(
            workload=source,
            combo=combo.label,
            duration=duration,
            seed=seed,
            delay_model=ConstantDelay(delay),
            label=f"delay/{delay}",
        )
        for delay in delays
    )
    return ExperimentSuite(name="sensitivity-delay", cells=cells)


def sweep_network_delay(
    delays: Sequence[float] = (0.0003, 0.001, 0.01, 0.05),
    combo: StrategyCombo = None,
    duration: float = 60.0,
    seed: int = 2008,
    params: Optional[RandomWorkloadParams] = None,
    n_workers: Optional[int] = None,
) -> List[DelaySweepPoint]:
    """Ratio/latency vs one-way network delay (centralized-AC stress)."""
    combo = combo or StrategyCombo.from_label("J_J_J")
    suite = build_delay_suite(delays, combo, duration, seed, params)
    points: List[DelaySweepPoint] = []
    for delay, run in zip(delays, suite.run_results(n_workers)):
        points.append(
            DelaySweepPoint(
                delay=delay,
                accepted_utilization_ratio=run.accepted_utilization_ratio,
                mean_response=run.mean_response_time,
                deadline_misses=run.deadline_misses,
            )
        )
    return points
