"""Deferrable Server (DS) baseline admission policy.

The paper's earlier work (Zhang et al., RTAS 2007) compared AUB-based
admission against a Deferrable Server design (Strosnider, Lehoczky & Sha,
IEEE ToC 1995) and found comparable performance with AUB requiring simpler
middleware mechanisms — the reason the paper adopts AUB exclusively.  This
module provides a DS baseline so the ablation benchmark can reproduce that
comparison.

Model
-----
Each processor reserves a deferrable server with utilization ``Us`` (budget
``Cs = Us * Ts`` replenished every ``Ts``).  Periodic tasks are admitted per
task against a deadline-monotonic utilization bound diminished by the
server's interference; aperiodic jobs are served from the per-processor
server budget, admitted when every visited processor can supply the
subtask's demand before the job's end-to-end deadline net of demand already
committed to earlier admitted aperiodic jobs.

The budget-supply bound is the standard DS lower bound: in a window of
length ``w`` the server supplies at least ``floor(w / Ts) * Cs`` plus the
residue of the current period.  We use the slightly conservative
``max(0, floor(w / Ts)) * Cs`` form, which never over-promises.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from repro.errors import SchedulingError
from repro.numeric import ordered_sum
from repro.sched.admission import AdmissionDecision, AdmissionPolicy
from repro.sched.task import Job, TaskKind


def rm_utilization_bound(n: int) -> float:
    """Liu & Layland bound ``n (2^{1/n} - 1)`` for ``n`` tasks."""
    if n <= 0:
        return 1.0
    return n * (2.0 ** (1.0 / n) - 1.0)


class DeferrableServerPolicy(AdmissionPolicy):
    """DS-based admission over a set of processors.

    Parameters
    ----------
    nodes:
        Processor names.
    server_utilization:
        Us, the CPU fraction reserved for aperiodic service per processor.
    server_period:
        Ts, the replenishment period in seconds.
    """

    def __init__(
        self,
        nodes: Iterable[str],
        server_utilization: float = 0.3,
        server_period: float = 0.1,
    ) -> None:
        self.nodes = sorted(set(nodes))
        if not self.nodes:
            raise SchedulingError("deferrable server needs at least one processor")
        if not 0 < server_utilization < 1:
            raise SchedulingError(
                f"server utilization must be in (0, 1), got {server_utilization}"
            )
        if server_period <= 0:
            raise SchedulingError(
                f"server period must be > 0, got {server_period}"
            )
        self.server_utilization = server_utilization
        self.server_period = server_period
        self.budget = server_utilization * server_period
        self._periodic_util: Dict[str, float] = {n: 0.0 for n in self.nodes}
        self._periodic_count: Dict[str, int] = {n: 0 for n in self.nodes}
        #: Outstanding aperiodic demand: node -> list of (expiry, demand).
        self._committed: Dict[str, List[Tuple[float, float]]] = {
            n: [] for n in self.nodes
        }
        self._admitted_tasks: Dict[str, bool] = {}
        self.decisions: List[AdmissionDecision] = []

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prune(self, node: str, now: float) -> None:
        self._committed[node] = [
            (expiry, demand)
            for expiry, demand in self._committed[node]
            if expiry > now
        ]

    def _supply(self, node: str, now: float, deadline: float) -> float:
        """Guaranteed server supply on ``node`` in [now, deadline], minus
        demand already committed in that window."""
        window = deadline - now
        if window <= 0:
            return 0.0
        whole_periods = math.floor(window / self.server_period)
        supply = whole_periods * self.budget
        self._prune(node, now)
        committed = ordered_sum(
            demand
            for expiry, demand in self._committed[node]
            if expiry <= deadline
        )
        return supply - committed

    def _admit_periodic(self, job: Job, now: float) -> bool:
        task = job.task
        # Hypothetically place each subtask on its home processor and run
        # the DM utilization test with the server treated as one more task.
        for subtask in task.subtasks:
            node = subtask.home
            u = subtask.execution_time / task.deadline
            n_tasks = self._periodic_count[node] + 2  # + this task + server
            bound = rm_utilization_bound(n_tasks)
            total = self._periodic_util[node] + u + self.server_utilization
            if total > bound:
                return False
        for subtask in task.subtasks:
            node = subtask.home
            self._periodic_util[node] += subtask.execution_time / task.deadline
            self._periodic_count[node] += 1
        return True

    def _admit_aperiodic(self, job: Job, now: float) -> bool:
        task = job.task
        for subtask in task.subtasks:
            node = subtask.home
            if self._supply(node, now, job.absolute_deadline) < subtask.execution_time:
                return False
        for subtask in task.subtasks:
            self._committed[subtask.home].append(
                (job.absolute_deadline, subtask.execution_time)
            )
        return True

    # ------------------------------------------------------------------
    # AdmissionPolicy interface
    # ------------------------------------------------------------------
    def on_arrival(self, job: Job, now: float) -> AdmissionDecision:
        task = job.task
        if task.kind is TaskKind.PERIODIC:
            if task.task_id in self._admitted_tasks:
                admitted = self._admitted_tasks[task.task_id]
                reason = "task decision cached (DS admits periodic tasks per task)"
            else:
                admitted = self._admit_periodic(job, now)
                self._admitted_tasks[task.task_id] = admitted
                reason = "DM utilization test with server interference"
        else:
            admitted = self._admit_aperiodic(job, now)
            reason = "server budget supply test"
        decision = AdmissionDecision(
            job_key=job.key,
            admitted=admitted,
            tested_at=now,
            assignment=task.home_assignment() if admitted else None,
            reason=reason,
        )
        self.decisions.append(decision)
        return decision

    def on_deadline(self, job: Job, now: float) -> None:
        # Committed demand is pruned lazily by expiry time; nothing to do.
        for subtask in job.task.subtasks:
            self._prune(subtask.home, now)
