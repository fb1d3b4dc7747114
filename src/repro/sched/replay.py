"""Arrival-trace replay engine for admission policies.

A lightweight, simulator-free path for comparing admission policies on the
*same* arrival trace: it iterates arrivals in time order, feeds each to a
policy, and accumulates the accepted utilization ratio.  Used by the
AUB-vs-Deferrable-Server ablation benchmark and by property tests that
exercise AUB bookkeeping at high arrival volume without the cost of the
full middleware simulation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.sched.admission import AdmissionDecision, AdmissionPolicy
from repro.sched.aub import AubAnalyzer, SyntheticUtilizationLedger
from repro.sched.task import Job


@dataclass
class ReplayResult:
    """Outcome of replaying one arrival trace through one policy."""

    arrived_jobs: int = 0
    admitted_jobs: int = 0
    arrived_utilization: float = 0.0
    admitted_utilization: float = 0.0
    decisions: List[AdmissionDecision] = field(default_factory=list)

    @property
    def accepted_utilization_ratio(self) -> float:
        if self.arrived_utilization == 0:
            return 1.0
        return self.admitted_utilization / self.arrived_utilization

    @property
    def acceptance_rate(self) -> float:
        if self.arrived_jobs == 0:
            return 1.0
        return self.admitted_jobs / self.arrived_jobs


def replay(arrivals: Iterable[Job], policy: AdmissionPolicy) -> ReplayResult:
    """Feed ``arrivals`` (any order; sorted internally) through ``policy``.

    Deadline expirations are delivered to the policy in timestamp order
    interleaved with arrivals, so policies relying on ``on_deadline`` for
    reclamation see a faithful event order.
    """
    result = ReplayResult()
    pending: List[Tuple[float, int, Job]] = []
    counter = 0
    for job in sorted(arrivals, key=lambda j: (j.arrival_time, j.task.task_id, j.index)):
        now = job.arrival_time
        while pending and pending[0][0] <= now:
            expiry, _n, expired_job = heapq.heappop(pending)
            policy.on_deadline(expired_job, expiry)
        result.arrived_jobs += 1
        result.arrived_utilization += job.utilization
        decision = policy.on_arrival(job, now)
        result.decisions.append(decision)
        if decision.admitted:
            result.admitted_jobs += 1
            result.admitted_utilization += job.utilization
            counter += 1
            heapq.heappush(pending, (job.absolute_deadline, counter, job))
    while pending:
        expiry, _n, expired_job = heapq.heappop(pending)
        policy.on_deadline(expired_job, expiry)
    return result


class AubReplayPolicy(AdmissionPolicy):
    """Pure-AUB admission policy for trace replay (AC per job, no IR/LB).

    Every job — periodic or aperiodic — is tested on arrival against
    condition (1) with contributions on home processors, which expire at
    the job's absolute deadline.  This is the `J_N_N` configuration of the
    paper reduced to its analytical core.
    """

    def __init__(self, nodes: Sequence[str]) -> None:
        self.ledger = SyntheticUtilizationLedger(nodes)
        self.analyzer = AubAnalyzer(self.ledger)

    def on_arrival(self, job: Job, now: float) -> AdmissionDecision:
        task = job.task
        assignment = task.home_assignment()
        visits = task.visited_processors(assignment)
        contribs: Dict[str, float] = {}
        for subtask in task.subtasks:
            node = assignment[subtask.index]
            contribs[node] = contribs.get(node, 0.0) + task.subtask_utilization(
                subtask.index
            )
        admitted = self.analyzer.admissible(visits, contribs, now)
        if admitted:
            for subtask in task.subtasks:
                node = assignment[subtask.index]
                self.ledger.add(
                    node,
                    (task.task_id, job.index, subtask.index),
                    task.subtask_utilization(subtask.index),
                )
            self.analyzer.register(job.key, visits, job.absolute_deadline)
        return AdmissionDecision(
            job_key=job.key,
            admitted=admitted,
            tested_at=now,
            assignment=assignment if admitted else None,
            reason="AUB condition (1)" if admitted else "AUB condition (1) violated",
        )

    def on_deadline(self, job: Job, now: float) -> None:
        task = job.task
        for subtask in task.subtasks:
            node = job.assignment.get(subtask.index, subtask.home)
            self.ledger.remove(node, (task.task_id, job.index, subtask.index))
        self.analyzer.unregister(job.key)
        self.analyzer.prune(now)


def jobs_from_plan(workload, plan) -> List[Job]:
    """Materialize an :class:`~repro.workloads.arrivals.ArrivalPlan` into
    home-assigned :class:`Job` objects ready for :func:`replay`."""
    jobs: List[Job] = []
    tasks = {t.task_id: t for t in workload.tasks}
    for task_id, times in plan.times.items():
        task = tasks[task_id]
        arrival_node = task.subtasks[0].home
        for index, t in enumerate(times):
            job = Job(
                task=task, index=index, arrival_time=t, arrival_node=arrival_node
            )
            job.assignment = task.home_assignment()
            jobs.append(job)
    return jobs
