"""Accepted utilization ratio — the paper's primary performance metric.

    "The performance metric we used in these evaluations is the accepted
    utilization ratio, i.e., the total utilization of jobs actually
    released divided by the total utilization of all jobs arriving."

A job's utilization is the sum of its subtask utilizations ``C_ij / D_i``.
The collector also tracks per-task-kind breakdowns and job counts, which
the experiments use for sanity assertions (e.g. periodic jobs of an
admitted task under AC-per-Task are all released).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.metrics.latency import LatencyMetrics
from repro.numeric import ordered_sum
from repro.sched.task import Job, TaskKind


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
        self.latency = LatencyMetrics()
        self.completed_jobs = 0
        self._rejections_by_task: Dict[str, int] = {}

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
        task_id = job.task.task_id
        self._rejections_by_task[task_id] = (
            self._rejections_by_task.get(task_id, 0) + 1
        )

    def on_completion(self, job: Job) -> None:
        self.completed_jobs += 1
        self.latency.on_completion(job)

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

    def kind_ratio(self, kind: TaskKind) -> float:
        counters = self.per_kind[kind]
        if counters.arrived_utilization == 0:
            return 1.0
        return counters.released_utilization / counters.arrived_utilization

    def rejections_for(self, task_id: str) -> int:
        return self._rejections_by_task.get(task_id, 0)

    def summary(self) -> Dict[str, float]:
        """Flat summary dict used by experiment reports."""
        return {
            "arrived_jobs": self.arrived_jobs,
            "released_jobs": self.released_jobs,
            "rejected_jobs": self.rejected_jobs,
            "accepted_utilization_ratio": self.accepted_utilization_ratio,
            "completed_jobs": self.completed_jobs,
            "deadline_misses": self.latency.deadline_misses,
            "mean_response_time": self.latency.response_times.mean,
        }
