"""End-to-end task model (paper section 2).

A **task** ``Ti`` is a chain of **subtasks** ``Ti,j`` located on different
processors; processing one event of the chain is a **subjob**, one release
of the whole task is a **job**.  A task has an end-to-end deadline; a
periodic task additionally has a period (the paper's workloads use period
= deadline).  Aperiodic tasks have no period — interarrival times can be
arbitrarily small.

Replication (criterion C3) is captured per subtask: ``replicas`` lists the
processors holding duplicates of the subtask's component, so the subtask
may execute on ``home`` or any replica when load balancing is enabled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TaskModelError
from repro.numeric import ordered_sum


class TaskKind(enum.Enum):
    """Whether a task's releases are time-driven or event-driven."""

    PERIODIC = "periodic"
    APERIODIC = "aperiodic"


class JobStatus(enum.Enum):
    """Lifecycle of one job through the middleware."""

    ARRIVED = "arrived"       # held by the task effector
    RELEASED = "released"     # admitted, subjobs executing
    REJECTED = "rejected"     # admission denied (job skipped)
    COMPLETED = "completed"   # last subjob finished


@dataclass(frozen=True)
class SubtaskSpec:
    """One stage of an end-to-end task.

    Attributes
    ----------
    index:
        Zero-based position in the task chain.
    execution_time:
        Worst-case execution time of each subjob, in seconds.
    home:
        Processor the subtask is assigned to when load balancing is off.
    replicas:
        Other processors hosting duplicates of this subtask's component.
    """

    index: int
    execution_time: float
    home: str
    replicas: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.index < 0:
            raise TaskModelError(f"subtask index must be >= 0, got {self.index}")
        if self.execution_time <= 0:
            raise TaskModelError(
                f"subtask execution time must be > 0, got {self.execution_time}"
            )
        if self.home in self.replicas:
            raise TaskModelError(
                f"subtask {self.index}: home {self.home!r} repeated in replicas"
            )
        if len(set(self.replicas)) != len(self.replicas):
            raise TaskModelError(f"subtask {self.index}: duplicate replicas")

    @property
    def eligible(self) -> Tuple[str, ...]:
        """All processors this subtask may execute on (home first)."""
        return (self.home,) + self.replicas


@dataclass(frozen=True)
class TaskSpec:
    """An end-to-end task: a chain of subtasks with a deadline.

    ``phase`` is the arrival time of the first job (periodic tasks) or the
    earliest possible arrival (aperiodic tasks).
    """

    task_id: str
    kind: TaskKind
    deadline: float
    subtasks: Tuple[SubtaskSpec, ...]
    period: Optional[float] = None
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not self.task_id:
            raise TaskModelError("task_id must be non-empty")
        if self.deadline <= 0:
            raise TaskModelError(
                f"task {self.task_id}: deadline must be > 0, got {self.deadline}"
            )
        if not self.subtasks:
            raise TaskModelError(f"task {self.task_id}: needs at least one subtask")
        for pos, subtask in enumerate(self.subtasks):
            if subtask.index != pos:
                raise TaskModelError(
                    f"task {self.task_id}: subtask indices must be consecutive "
                    f"from 0 (position {pos} has index {subtask.index})"
                )
        if self.kind is TaskKind.PERIODIC:
            if self.period is None or self.period <= 0:
                raise TaskModelError(
                    f"periodic task {self.task_id}: period must be > 0, "
                    f"got {self.period}"
                )
        elif self.period is not None:
            raise TaskModelError(
                f"aperiodic task {self.task_id}: must not declare a period"
            )
        if self.phase < 0:
            raise TaskModelError(
                f"task {self.task_id}: phase must be >= 0, got {self.phase}"
            )
        total_exec = ordered_sum(s.execution_time for s in self.subtasks)
        if total_exec > self.deadline:
            raise TaskModelError(
                f"task {self.task_id}: total execution time {total_exec} "
                f"exceeds end-to-end deadline {self.deadline}"
            )
        # Derived once here, not per job (not a dataclass field, so it
        # stays out of equality, hashing and repr).
        object.__setattr__(
            self, "_total_utilization", total_exec / self.deadline
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def is_periodic(self) -> bool:
        return self.kind is TaskKind.PERIODIC

    @property
    def n_subtasks(self) -> int:
        return len(self.subtasks)

    def subtask_utilization(self, index: int) -> float:
        """AUB per-subtask utilization: C_ij / D_i."""
        return self.subtasks[index].execution_time / self.deadline

    @property
    def total_utilization(self) -> float:
        """Sum of subtask utilizations; the job's weight in the
        accepted-utilization-ratio metric."""
        return self._total_utilization

    def home_assignment(self) -> Dict[int, str]:
        """Assignment map when load balancing is disabled."""
        return {s.index: s.home for s in self.subtasks}

    def visited_processors(self, assignment: Dict[int, str]) -> List[str]:
        """The processor list V_ij the task visits under ``assignment``.

        Repeated visits to the same processor appear multiple times, per
        the AUB condition's per-stage sum.
        """
        return [assignment[s.index] for s in self.subtasks]


@dataclass
class Job:
    """One release of an end-to-end task.

    A job carries its own assignment map (subtask index -> processor)
    because load balancing per job may place different jobs of the same
    task on different processors.
    """

    task: TaskSpec
    index: int
    arrival_time: float
    arrival_node: str
    status: JobStatus = JobStatus.ARRIVED
    assignment: Dict[int, str] = field(default_factory=dict)
    released_at: Optional[float] = None
    release_node: Optional[str] = None
    completed_at: Optional[float] = None
    subjob_finish_times: Dict[int, float] = field(default_factory=dict)
    #: Globally unique job identity: (task id, job index).
    key: Tuple[str, int] = field(init=False, repr=False, compare=False)
    absolute_deadline: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Fixed by the task, index and arrival time: computed once here.
        self.key = (self.task.task_id, self.index)
        self.absolute_deadline = self.arrival_time + self.task.deadline

    @property
    def utilization(self) -> float:
        return self.task.total_utilization

    @property
    def response_time(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival_time

    @property
    def met_deadline(self) -> Optional[bool]:
        if self.completed_at is None:
            return None
        return self.completed_at <= self.absolute_deadline + 1e-12

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Job {self.task.task_id}#{self.index} t={self.arrival_time:.6f} "
            f"{self.status.value}>"
        )
