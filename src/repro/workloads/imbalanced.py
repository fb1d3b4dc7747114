"""Imbalanced workload generator (paper section 7.2).

    "We divided the 5 application processors into two groups.  One group
    contains 3 processors hosting all tasks.  The other group contains 2
    processors hosting all duplicates.  10 task sets are randomly
    generated as in the above experiment, except that all subtasks were
    randomly assigned to 3 application processors in the first group and
    the number of subtasks per task is uniformly distributed between 1
    and 3.  The synthetic utilization for any of these three processors
    is 0.7.  Each subtask has one replica sitting on one processor in the
    second group."

This workload is the paper's stand-in for a dynamic CPS where a subset of
processors experiences heavy load (e.g. a blocked flow valve launching
aperiodic alert and diagnostic tasks near the affected sensors) while
replica capacity elsewhere sits idle — the scenario where load balancing
pays off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import WorkloadSpecError
from repro.workloads.generator import RandomWorkloadParams, generate_random_workload
from repro.workloads.model import DEFAULT_MANAGER_NODE, Workload
from repro.sched.task import SubtaskSpec, TaskSpec


@dataclass(frozen=True)
class ImbalancedWorkloadParams:
    """Knobs of the section 7.2 generator (defaults = the paper's)."""

    #: The workload source kind these params go with (its JSON ``kind``).
    JSON_TAG = "imbalanced"

    n_periodic: int = 5
    n_aperiodic: int = 4
    n_loaded_processors: int = 3
    n_replica_processors: int = 2
    min_subtasks: int = 1
    max_subtasks: int = 3
    min_deadline: float = 0.25
    max_deadline: float = 10.0
    target_utilization: float = 0.7
    processor_prefix: str = "app"
    manager_node: str = DEFAULT_MANAGER_NODE

    def __post_init__(self) -> None:
        if self.n_loaded_processors < 1 or self.n_replica_processors < 1:
            raise WorkloadSpecError("need at least one processor per group")
        if not 0 < self.target_utilization < 1:
            raise WorkloadSpecError("target utilization must be in (0, 1)")


def generate_imbalanced_workload(
    rng: random.Random,
    params: Optional[ImbalancedWorkloadParams] = None,
) -> Workload:
    """Generate one imbalanced workload per the section 7.2 recipe.

    Implemented by generating a balanced workload over the loaded group
    only, then re-homing every replica onto a randomly chosen processor of
    the replica group.
    """
    params = params or ImbalancedWorkloadParams()
    base_params = RandomWorkloadParams(
        n_periodic=params.n_periodic,
        n_aperiodic=params.n_aperiodic,
        n_processors=params.n_loaded_processors,
        min_subtasks=params.min_subtasks,
        max_subtasks=params.max_subtasks,
        min_deadline=params.min_deadline,
        max_deadline=params.max_deadline,
        target_utilization=params.target_utilization,
        replicas_per_subtask=0 if params.n_loaded_processors == 1 else 1,
        processor_prefix=params.processor_prefix,
        manager_node=params.manager_node,
    )
    base = generate_random_workload(rng, base_params)
    loaded = list(base.app_nodes)
    replica_nodes = [
        f"{params.processor_prefix}{params.n_loaded_processors + i + 1}"
        for i in range(params.n_replica_processors)
    ]
    tasks: List[TaskSpec] = []
    for task in base.tasks:
        subtasks = tuple(
            SubtaskSpec(
                index=s.index,
                execution_time=s.execution_time,
                home=s.home,
                replicas=(rng.choice(replica_nodes),),
            )
            for s in task.subtasks
        )
        tasks.append(
            TaskSpec(
                task_id=task.task_id,
                kind=task.kind,
                deadline=task.deadline,
                subtasks=subtasks,
                period=task.period,
                phase=task.phase,
            )
        )
    return Workload(
        tasks=tuple(tasks),
        app_nodes=tuple(loaded + replica_nodes),
        manager_node=params.manager_node,
    )
