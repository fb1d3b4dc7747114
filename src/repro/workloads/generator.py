"""Random workload generator (paper section 7.1).

    "We first randomly generated 10 sets of 9 tasks, each including 4
    aperiodic tasks and 5 periodic tasks.  The number of subtasks per task
    is uniformly distributed between 1 and 5.  Subtasks are randomly
    assigned to 5 application processors.  Task deadlines are randomly
    chosen between 250 ms and 10 s.  The periods of periodic tasks are
    equal to their deadlines.  The arrival of aperiodic tasks follows a
    Poisson distribution.  The synthetic utilization of every processor
    is 0.5, if all tasks arrive simultaneously.  Each subtask is assigned
    to a processor, and has a duplicate sitting on a different processor
    which is randomly picked from the other 4 application processors."

Execution times are drawn as random weights and then scaled per processor
so the all-tasks-current synthetic utilization hits the target exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import WorkloadSpecError
from repro.sched.task import SubtaskSpec, TaskKind, TaskSpec
from repro.workloads.model import DEFAULT_MANAGER_NODE, Workload


@dataclass(frozen=True)
class RandomWorkloadParams:
    """Knobs of the section 7.1 generator (defaults = the paper's)."""

    #: The workload source kind these params go with (its JSON ``kind``).
    JSON_TAG = "random"

    n_periodic: int = 5
    n_aperiodic: int = 4
    n_processors: int = 5
    min_subtasks: int = 1
    max_subtasks: int = 5
    min_deadline: float = 0.25
    max_deadline: float = 10.0
    target_utilization: float = 0.5
    replicas_per_subtask: int = 1
    processor_prefix: str = "app"
    manager_node: str = DEFAULT_MANAGER_NODE
    #: Stagger each periodic task's first arrival uniformly inside its
    #: period.  The synthetic-utilization calibration target is defined for
    #: the hypothetical "all tasks arrive simultaneously" case regardless.
    randomize_phases: bool = True

    def __post_init__(self) -> None:
        if self.n_periodic < 0 or self.n_aperiodic < 0:
            raise WorkloadSpecError("task counts must be >= 0")
        if self.n_periodic + self.n_aperiodic == 0:
            raise WorkloadSpecError("need at least one task")
        if not 1 <= self.min_subtasks <= self.max_subtasks:
            raise WorkloadSpecError("bad subtask count range")
        if not 0 < self.min_deadline <= self.max_deadline:
            raise WorkloadSpecError("bad deadline range")
        if not 0 < self.target_utilization < 1:
            raise WorkloadSpecError("target utilization must be in (0, 1)")
        if self.n_processors < 2 and self.replicas_per_subtask > 0:
            raise WorkloadSpecError("replication needs at least 2 processors")
        if self.replicas_per_subtask >= self.n_processors:
            raise WorkloadSpecError("cannot replicate onto more nodes than exist")


def _processor_names(prefix: str, count: int) -> List[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


def _scale_to_target(
    draft: List[dict],
    processors: List[str],
    target: float,
) -> None:
    """Scale subtask utilizations per processor so each processor's
    all-current synthetic utilization equals ``target``.

    ``draft`` entries carry ``home`` and raw ``weight``; this sets their
    final ``utilization`` in place.  Processors that received no subtasks
    are left empty (possible for tiny task counts)."""
    per_node: Dict[str, float] = {p: 0.0 for p in processors}
    for entry in draft:
        per_node[entry["home"]] += entry["weight"]
    for entry in draft:
        node_weight = per_node[entry["home"]]
        entry["utilization"] = entry["weight"] / node_weight * target


def generate_random_workload(
    rng: random.Random,
    params: Optional[RandomWorkloadParams] = None,
) -> Workload:
    """Generate one balanced random workload per the section 7.1 recipe."""
    params = params or RandomWorkloadParams()
    processors = _processor_names(params.processor_prefix, params.n_processors)

    kinds = [TaskKind.PERIODIC] * params.n_periodic + [
        TaskKind.APERIODIC
    ] * params.n_aperiodic

    for _attempt in range(100):
        draft: List[dict] = []
        task_meta: List[Tuple[str, TaskKind, float, int]] = []
        for i, kind in enumerate(kinds):
            prefix = "P" if kind is TaskKind.PERIODIC else "A"
            task_id = f"{prefix}{i + 1}"
            deadline = rng.uniform(params.min_deadline, params.max_deadline)
            n_subtasks = rng.randint(params.min_subtasks, params.max_subtasks)
            phase = 0.0
            if params.randomize_phases and kind is TaskKind.PERIODIC:
                phase = rng.uniform(0.0, deadline)
            task_meta.append((task_id, kind, deadline, n_subtasks, phase))
            for index in range(n_subtasks):
                home = rng.choice(processors)
                others = [p for p in processors if p != home]
                replicas = tuple(
                    rng.sample(others, params.replicas_per_subtask)
                )
                draft.append(
                    {
                        "task_id": task_id,
                        "index": index,
                        "home": home,
                        "replicas": replicas,
                        "weight": rng.uniform(0.5, 1.5),
                    }
                )
        used_nodes = {entry["home"] for entry in draft}
        if used_nodes != set(processors):
            continue  # re-draw: every processor must host load to calibrate
        _scale_to_target(draft, processors, params.target_utilization)
        tasks = _assemble_tasks(draft, task_meta)
        if tasks is not None:
            return Workload(
                tasks=tuple(tasks),
                app_nodes=tuple(processors),
                manager_node=params.manager_node,
            )
    raise WorkloadSpecError(
        "could not generate a feasible workload in 100 attempts; "
        "target utilization or subtask counts are too extreme"
    )


def _assemble_tasks(
    draft: List[dict],
    task_meta: List[Tuple[str, TaskKind, float, int, float]],
) -> Optional[List[TaskSpec]]:
    """Turn scaled draft entries into TaskSpecs; None if any task's total
    execution time would exceed its deadline (caller re-draws)."""
    by_task: Dict[str, List[dict]] = {}
    for entry in draft:
        by_task.setdefault(entry["task_id"], []).append(entry)
    tasks: List[TaskSpec] = []
    for task_id, kind, deadline, _n, phase in task_meta:
        entries = sorted(by_task[task_id], key=lambda e: e["index"])
        subtasks = []
        total_exec = 0.0
        for entry in entries:
            execution_time = entry["utilization"] * deadline
            total_exec += execution_time
            subtasks.append(
                SubtaskSpec(
                    index=entry["index"],
                    execution_time=execution_time,
                    home=entry["home"],
                    replicas=entry["replicas"],
                )
            )
        if total_exec > deadline:
            return None
        tasks.append(
            TaskSpec(
                task_id=task_id,
                kind=kind,
                deadline=deadline,
                subtasks=tuple(subtasks),
                period=deadline if kind is TaskKind.PERIODIC else None,
                phase=phase,
            )
        )
    return tasks
