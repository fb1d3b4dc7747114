"""Ablation: AUB admission vs the Deferrable Server baseline.

The paper adopts AUB because its earlier work found it performs
comparably to a Deferrable Server design while needing simpler middleware
mechanisms (section 2).  This experiment replays identical arrival traces
through both admission policies and compares accepted utilization ratios
— reproducing that comparison analytically (no middleware overheads, so
the difference is purely the admission mathematics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api.scenario import Scenario, WorkloadSource
from repro.api.suite import ExperimentSuite
from repro.experiments.report import format_table
from repro.numeric import ordered_sum
from repro.sched.replay import jobs_from_plan
from repro.sim.rng import RngRegistry
from repro.workloads.generator import RandomWorkloadParams, generate_random_workload
from repro.workloads.model import Workload

#: Back-compat alias — the canonical helper lives in repro.sched.replay.
_jobs_from_plan = jobs_from_plan


@dataclass
class AblationResult:
    """Paired accepted-utilization ratios per task set."""

    aub_ratios: List[float] = field(default_factory=list)
    ds_ratios: List[float] = field(default_factory=list)

    @property
    def aub_mean(self) -> float:
        return ordered_sum(self.aub_ratios) / len(self.aub_ratios)

    @property
    def ds_mean(self) -> float:
        return ordered_sum(self.ds_ratios) / len(self.ds_ratios)

    def format(self) -> str:
        rows = [
            [i, aub, ds]
            for i, (aub, ds) in enumerate(zip(self.aub_ratios, self.ds_ratios))
        ]
        rows.append(["mean", self.aub_mean, self.ds_mean])
        return format_table(
            ["task set", "AUB", "Deferrable Server"],
            rows,
            title="Ablation — AUB vs Deferrable Server admission",
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "experiment": "ablation",
            "aub_ratios": list(self.aub_ratios),
            "ds_ratios": list(self.ds_ratios),
            "aub_mean": self.aub_mean,
            "ds_mean": self.ds_mean,
        }


def build_ablation_suite(
    n_sets: int = 10,
    duration: float = 120.0,
    seed: int = 2008,
    params: Optional[RandomWorkloadParams] = None,
    aperiodic_interarrival_factor: float = 2.0,
    server_utilization: float = 0.3,
    server_period: float = 0.1,
) -> ExperimentSuite:
    """The ablation as a declarative replay-scenario grid.

    Task sets are generated up front from the shared stream (preserving
    the serial draw order); each set becomes *two* replay scenarios (AUB
    and Deferrable Server) whose per-set arrival streams are keyed by set
    index, so both replay exactly the same trace no matter which worker
    runs them.
    """
    gen_rng = RngRegistry(seed).stream("task_sets")
    workloads = [generate_random_workload(gen_rng, params) for _ in range(n_sets)]
    cells = []
    for set_index, workload in enumerate(workloads):
        source = WorkloadSource.explicit(workload)
        common = dict(
            workload=source,
            duration=duration,
            seed=seed,
            aperiodic_interarrival_factor=aperiodic_interarrival_factor,
            arrival_stream=f"arrivals:{set_index}",
            engine="replay",
        )
        cells.append(
            Scenario(policy="aub", label=f"aub/set{set_index}", **common)
        )
        cells.append(
            Scenario(
                policy="deferrable_server",
                policy_params=(
                    ("server_period", server_period),
                    ("server_utilization", server_utilization),
                ),
                label=f"ds/set{set_index}",
                **common,
            )
        )
    return ExperimentSuite(name="ablation", cells=tuple(cells))


def run_aub_vs_deferrable(
    n_sets: int = 10,
    duration: float = 120.0,
    seed: int = 2008,
    params: Optional[RandomWorkloadParams] = None,
    aperiodic_interarrival_factor: float = 2.0,
    server_utilization: float = 0.3,
    server_period: float = 0.1,
    n_workers: Optional[int] = None,
) -> AblationResult:
    """Replay identical traces through AUB and DS admission policies.

    Note the comparison's asymmetry (documented in DESIGN.md): AUB
    admission *guarantees* end-to-end deadlines for admitted jobs, while
    the DS utilization/budget tests are necessary-but-looser conditions —
    DS can show a higher acceptance ratio precisely because it promises
    less.  The paper's claim is that AUB is comparable while requiring
    simpler middleware mechanisms.

    Task sets are generated up front from the shared stream (preserving
    the serial draw order) and then replayed as independent parallel
    scenario cells; per-set arrival streams are keyed by set index, so
    each cell reproduces exactly the serial trace.
    """
    suite = build_ablation_suite(
        n_sets=n_sets,
        duration=duration,
        seed=seed,
        params=params,
        aperiodic_interarrival_factor=aperiodic_interarrival_factor,
        server_utilization=server_utilization,
        server_period=server_period,
    )
    outcomes = iter(suite.run_results(n_workers))
    result = AblationResult()
    for aub_run, ds_run in zip(outcomes, outcomes):
        result.aub_ratios.append(aub_run.accepted_utilization_ratio)
        result.ds_ratios.append(ds_run.accepted_utilization_ratio)
    return result
