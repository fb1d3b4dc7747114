"""Event payload types exchanged between middleware components.

These correspond one-to-one to the events in the paper's Figure 3:
"Task Arrive" (TE -> AC), "Accept" (AC -> TE), "Trigger" (F/I Subtask ->
next subtask), "Idle Resetting" (IR -> AC).  A "Reject" event is added so
task effectors can clean up held jobs; the paper leaves the rejection path
implicit.

Payloads are immutable ``NamedTuple``s: one C-level tuple per event.
Topic-name constants are defined here so publishers and subscribers cannot
drift apart.  A push addresses a (node, topic) pair, so a topic names a
port on its node: each TE listens to ``accept`` and ``reject`` on its own
processor, and each application node has one ``trigger`` route, which
finds the stage a :class:`TriggerEvent` names by (task, stage, node)
(:func:`repro.core.subtask.bind_trigger_routes`).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sched.task import Job

#: Topic: task effector announces an arrived job to the admission controller.
TOPIC_TASK_ARRIVE = "task_arrive"

#: Topic: admission controller authorizes release of a held job.
TOPIC_ACCEPT = "accept"

#: Topic: admission controller refuses a held job.
TOPIC_REJECT = "reject"

#: Topic: a subtask component triggers its successor subtask (one route
#: per application node, whatever the number of stages deployed there).
TOPIC_TRIGGER = "trigger"

#: Topic: idle resetter reports completed subjobs to the admission controller.
TOPIC_IDLE_RESETTING = "idle_resetting"


class TaskArriveEvent(NamedTuple):
    """A job arrived at a task effector and awaits an admission decision."""

    job: "Job"
    arrival_node: str


class AcceptEvent(NamedTuple):
    """Admission granted; release the job using ``assignment``.

    ``assignment`` maps subtask index -> processor name.  ``reallocated``
    is true when the first subtask runs on a different node than the one
    the job arrived on (the paper's "task re-allocation" via a duplicate).
    """

    job: "Job"
    assignment: Dict[int, str]
    arrival_node: str
    release_node: str

    @property
    def reallocated(self) -> bool:
        return self.release_node != self.arrival_node


class RejectEvent(NamedTuple):
    """Admission denied; the job (or whole task) is skipped."""

    job: "Job"
    arrival_node: str
    reason: str = ""


class TriggerEvent(NamedTuple):
    """Completion of subtask ``index`` releases subtask ``index + 1``."""

    job: "Job"
    next_index: int
    assignment: Dict[int, str]


class IdleResettingEvent(NamedTuple):
    """Completed-subjob contributions that can be reset on the AC side.

    One event carries **one processor idle period's whole reclaim batch**:
    ``node`` is the idle processor and ``entries`` the ledger keys
    ``(task_id, job_index, subtask_index)`` of contributions on it whose
    deadline has not yet expired.  The AC applies the batch with a single
    ledger ``remove_batch`` — one AUB cache refresh per idle period
    instead of one per subjob.
    """

    node: str
    entries: Tuple[Tuple[str, int, int], ...]
