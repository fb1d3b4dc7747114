"""Accepted utilization ratio — the paper's primary performance metric.

    "The performance metric we used in these evaluations is the accepted
    utilization ratio, i.e., the total utilization of jobs actually
    released divided by the total utilization of all jobs arriving."

A job's utilization is the sum of its subtask utilizations ``C_ij / D_i``.
The collector also tracks per-task-kind breakdowns and job counts, which
the experiments use for sanity assertions (e.g. periodic jobs of an
admitted task under AC-per-Task are all released), and the response
times and deadline misses of completed jobs.  AUB admission guarantees
that admitted jobs meet their end-to-end deadlines under EDMS, so a miss
means middleware overhead ate into a very tight deadline, or a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.numeric import ordered_sum
from repro.sched.task import Job, TaskKind
from repro.sim.monitor import StatSeries


@dataclass
class KindCounters:
    """Arrival/release/rejection counters for one task kind."""

    arrived_jobs: int = 0
    released_jobs: int = 0
    rejected_jobs: int = 0
    arrived_utilization: float = 0.0
    released_utilization: float = 0.0


class MetricsCollector:
    """Accumulates arrival/release/rejection/completion statistics."""

    def __init__(self) -> None:
        self.per_kind: Dict[TaskKind, KindCounters] = {
            kind: KindCounters() for kind in TaskKind
        }
        self.completed_jobs = 0
        #: Response times (arrival to completion) of completed jobs.
        self.response_times = StatSeries()
        self.deadline_misses = 0

    # ------------------------------------------------------------------
    # Event hooks (called by the middleware components)
    # ------------------------------------------------------------------
    def on_arrival(self, job: Job) -> None:
        counters = self.per_kind[job.task.kind]
        counters.arrived_jobs += 1
        counters.arrived_utilization += job.utilization

    def on_release(self, job: Job) -> None:
        counters = self.per_kind[job.task.kind]
        counters.released_jobs += 1
        counters.released_utilization += job.utilization

    def on_rejection(self, job: Job) -> None:
        counters = self.per_kind[job.task.kind]
        counters.rejected_jobs += 1

    def on_completion(self, job: Job) -> None:
        self.completed_jobs += 1
        response = job.response_time
        if response is None:
            return
        self.response_times.add(response)
        if not job.met_deadline:
            self.deadline_misses += 1

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def arrived_jobs(self) -> int:
        return sum(c.arrived_jobs for c in self.per_kind.values())

    @property
    def released_jobs(self) -> int:
        return sum(c.released_jobs for c in self.per_kind.values())

    @property
    def rejected_jobs(self) -> int:
        return sum(c.rejected_jobs for c in self.per_kind.values())

    @property
    def arrived_utilization(self) -> float:
        return ordered_sum(
            c.arrived_utilization for c in self.per_kind.values()
        )

    @property
    def released_utilization(self) -> float:
        return ordered_sum(
            c.released_utilization for c in self.per_kind.values()
        )

    @property
    def accepted_utilization_ratio(self) -> float:
        """The paper's metric; 1.0 for an empty run (nothing to reject)."""
        if self.arrived_utilization == 0:
            return 1.0
        return self.released_utilization / self.arrived_utilization
