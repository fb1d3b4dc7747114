"""Arrival plans: when each job of each task arrives.

Periodic tasks release jobs at ``phase + k * period``.  Aperiodic task
arrivals follow a Poisson process (paper section 7.1) whose mean
interarrival time defaults to ``aperiodic_interarrival_factor`` times the
task's end-to-end deadline — a load knob a scenario sets; the paper's
text fixes only the distribution, not the rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.errors import WorkloadSpecError
from repro.sched.task import TaskKind, TaskSpec
from repro.workloads.model import Workload


@dataclass(frozen=True)
class ArrivalPlan:
    """Concrete arrival times for every job of every task in a run."""

    times: Dict[str, Tuple[float, ...]]
    horizon: float

    @property
    def total_jobs(self) -> int:
        return sum(len(ts) for ts in self.times.values())

    def events(self) -> Iterator[Tuple[float, str, int]]:
        """All (arrival_time, task_id, job_index) in time order."""
        merged: List[Tuple[float, str, int]] = []
        for task_id, task_times in self.times.items():
            for index, t in enumerate(task_times):
                merged.append((t, task_id, index))
        merged.sort()
        return iter(merged)


def periodic_arrivals(task: TaskSpec, horizon: float) -> List[float]:
    """Arrival times of a periodic task within [0, horizon)."""
    if task.kind is not TaskKind.PERIODIC:
        raise WorkloadSpecError(f"task {task.task_id} is not periodic")
    times: List[float] = []
    t = task.phase
    while t < horizon:
        times.append(t)
        t += task.period
    return times


def poisson_arrivals(
    task: TaskSpec,
    horizon: float,
    mean_interarrival: float,
    rng: random.Random,
) -> List[float]:
    """Poisson arrival times for an aperiodic task within [0, horizon)."""
    if task.kind is not TaskKind.APERIODIC:
        raise WorkloadSpecError(f"task {task.task_id} is not aperiodic")
    if mean_interarrival <= 0:
        raise WorkloadSpecError(
            f"mean interarrival must be > 0, got {mean_interarrival}"
        )
    times: List[float] = []
    t = task.phase + rng.expovariate(1.0 / mean_interarrival)
    while t < horizon:
        times.append(t)
        t += rng.expovariate(1.0 / mean_interarrival)
    return times


def build_arrival_plan(
    workload: Workload,
    horizon: float,
    rng: random.Random,
    aperiodic_interarrival_factor: float = 2.0,
) -> ArrivalPlan:
    """Generate the full arrival plan for one run.

    ``aperiodic_interarrival_factor`` scales each aperiodic task's mean
    interarrival time relative to its deadline; smaller values mean a more
    heavily loaded system.
    """
    if horizon <= 0:
        raise WorkloadSpecError(f"horizon must be > 0, got {horizon}")
    times: Dict[str, Tuple[float, ...]] = {}
    for task in workload.tasks:
        if task.kind is TaskKind.PERIODIC:
            times[task.task_id] = tuple(periodic_arrivals(task, horizon))
        else:
            mean = aperiodic_interarrival_factor * task.deadline
            times[task.task_id] = tuple(
                poisson_arrivals(task, horizon, mean, rng)
            )
    return ArrivalPlan(times=times, horizon=horizon)
