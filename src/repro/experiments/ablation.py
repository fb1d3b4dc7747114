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
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.report import format_table
from repro.experiments.runner import run_cells
from repro.json_checks import encode
from repro.numeric import ordered_sum
from repro.sched.deferrable import DeferrableServerPolicy
from repro.sched.replay import AubReplayPolicy, jobs_from_plan, replay
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import build_arrival_plan
from repro.workloads.generator import RandomWorkloadParams, generate_random_workload
from repro.workloads.model import Workload


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
            **encode(self, AblationResult),
            "aub_mean": self.aub_mean,
            "ds_mean": self.ds_mean,
        }


def replay_cell(
    workload: Workload,
    set_index: int,
    seed: int,
    duration: float,
    aperiodic_interarrival_factor: float,
    server_utilization: float,
    server_period: float,
) -> Tuple[float, float]:
    """One task set replayed through AUB and the Deferrable Server; returns
    their accepted utilization ratios.

    The trace comes from stream ``arrivals:<set_index>`` of a fresh
    ``RngRegistry(seed)``: streams are keyed by name, so every cell
    draws the same trace whichever worker runs it.
    """
    plan = build_arrival_plan(
        workload,
        duration,
        RngRegistry(seed).stream(f"arrivals:{set_index}"),
        aperiodic_interarrival_factor,
    )
    nodes = list(workload.app_nodes)
    aub = replay(jobs_from_plan(workload, plan), AubReplayPolicy(nodes))
    ds = replay(
        jobs_from_plan(workload, plan),
        DeferrableServerPolicy(
            nodes,
            server_utilization=server_utilization,
            server_period=server_period,
        ),
    )
    return aub.accepted_utilization_ratio, ds.accepted_utilization_ratio


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

    The comparison is asymmetric: AUB admission *guarantees* the
    end-to-end deadlines of the jobs it admits, while the DS
    utilization and budget tests are necessary but looser conditions, so
    DS can show a higher acceptance ratio precisely because it promises
    less.  The paper's claim is that AUB is comparable while requiring
    simpler middleware mechanisms.

    Task sets are generated up front from the shared ``task_sets``
    stream (preserving the serial draw order); each set is then one
    :func:`replay_cell` fanned out through
    :func:`~repro.experiments.runner.run_cells`.
    """
    gen_rng = RngRegistry(seed).stream("task_sets")
    workloads = [generate_random_workload(gen_rng, params) for _ in range(n_sets)]
    cells = [
        (
            workload,
            set_index,
            seed,
            duration,
            aperiodic_interarrival_factor,
            server_utilization,
            server_period,
        )
        for set_index, workload in enumerate(workloads)
    ]
    result = AblationResult()
    for aub_ratio, ds_ratio in run_cells(replay_cell, cells, n_workers):
        result.aub_ratios.append(aub_ratio)
        result.ds_ratios.append(ds_ratio)
    return result
