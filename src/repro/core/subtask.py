"""First/Intermediate (F/I) and Last Subtask components.

Each deployed instance executes one subtask of one end-to-end task on one
processor (original or duplicate), on a dispatching thread at a fixed
priority (the task's end-to-end deadline — EDMS).  The F/I component has
an extra "Trigger" event source that initiates the next subtask; the Last
Subtask component instead records job completion.  Both call the local IR
component's "Complete" facet when a subjob finishes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ccm.component import AttributeSpec, Component
from repro.ccm.events import TriggerEvent, trigger_topic
from repro.ccm.ports import EventSinkPort, EventSourcePort, Facet, Receptacle
from repro.core.runtime import RuntimeEnv
from repro.cpu.thread import WorkItem
from repro.errors import ComponentError
from repro.sched.task import Job, JobStatus


class _SubtaskComponentBase(Component):
    """Shared machinery of the F/I and Last Subtask components."""

    ATTRIBUTES = {
        "task_id": AttributeSpec(str, required=True, doc="Owning end-to-end task."),
        "subtask_index": AttributeSpec(
            int, required=True, validator=lambda v: v >= 0,
            doc="Stage position in the task chain.",
        ),
        "execution_time": AttributeSpec(
            float, required=True, validator=lambda v: v > 0,
            doc="Worst-case execution time of one subjob, seconds.",
        ),
        "priority": AttributeSpec(
            float, required=True,
            doc="Dispatch priority; EDMS uses the end-to-end deadline "
            "(smaller = more urgent).",
        ),
        "ir_mode": AttributeSpec(
            str,
            default="N",
            validator=lambda v: v in ("N", "T", "J"),
            doc="No-IR / IR-per-task / IR-per-job: whether completions are "
            "reported to the local Idle Resetting component.",
        ),
    }

    #: Subclasses set: does this component trigger a successor stage?
    IS_LAST = False

    def __init__(self, name: str, env: RuntimeEnv) -> None:
        super().__init__(name)
        self.env = env
        self._thread = None
        self._complete_port = Receptacle(self, "ir_complete")
        self.subjobs_executed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def connect_ir(self, facet: Facet) -> None:
        """Wire the receptacle for Complete calls on the local IR."""
        self._complete_port.connect(facet)

    def on_activate(self) -> None:
        task_id = self.get_attribute("task_id")
        index = self.get_attribute("subtask_index")
        self._thread = self.processor.new_thread(
            f"{self.name}.dispatch", self.get_attribute("priority")
        )
        if index > 0:
            sink = EventSinkPort(self, "trigger_in", self._on_trigger)
            sink.subscribe(trigger_topic(task_id, index))
        self.env.subtask_instances[(task_id, index, self.node)] = self

    # ------------------------------------------------------------------
    # Subjob execution
    # ------------------------------------------------------------------
    def release(self, job: Job, assignment: Dict[int, str]) -> None:
        """Dispatch one subjob of ``job`` on this component's thread."""
        # Immutable attributes, read from the validated dict: a subtask
        # component stores no copies (a deployment holds thousands).
        attributes = self._attributes
        index = attributes["subtask_index"]
        if assignment.get(index) != self.node:
            raise ComponentError(
                f"{self.name!r}: job {job.key} assigned stage {index} to "
                f"{assignment.get(index)!r}, not this node {self.node!r}"
            )
        cost = attributes["execution_time"]
        self.processor.submit(
            self._thread,
            WorkItem(
                cost,
                self._subjob_finished,
                payload=(job, assignment),
                label=f"{self.name}.subjob",
            ),
        )

    def _on_trigger(self, event: TriggerEvent) -> None:
        self.release(event.job, event.assignment)

    def _subjob_finished(self, payload) -> None:
        job, assignment = payload
        now = self.sim.now
        attributes = self._attributes
        index = attributes["subtask_index"]
        job.subjob_finish_times[index] = now
        self.subjobs_executed += 1
        if self.tracer.enabled:
            self.tracer.record(
                now,
                "subtask.complete",
                self.node,
                task=job.task.task_id,
                job=job.index,
                stage=index,
            )
        if self._complete_port.connected and attributes["ir_mode"] != "N":
            self._complete_port().complete(job, index)
        self._after_subjob(job, assignment, index)

    def _after_subjob(self, job: Job, assignment: Dict[int, str], index: int) -> None:
        raise NotImplementedError


class FISubtaskComponent(_SubtaskComponentBase):
    """First or intermediate stage: publishes a Trigger to the successor."""

    IS_LAST = False

    def __init__(self, name: str, env: RuntimeEnv) -> None:
        super().__init__(name, env)
        self._trigger_out: Optional[EventSourcePort] = None

    def on_install(self, container) -> None:
        self._trigger_out = EventSourcePort(self, "trigger_out")

    def _after_subjob(self, job: Job, assignment: Dict[int, str], index: int) -> None:
        next_index = index + 1
        next_node = assignment[next_index]
        self._trigger_out.push(
            next_node,
            trigger_topic(job.task.task_id, next_index),
            TriggerEvent(job=job, next_index=next_index, assignment=assignment),
        )


class LastSubtaskComponent(_SubtaskComponentBase):
    """Final stage: records end-to-end job completion (no Trigger port)."""

    IS_LAST = True

    def _after_subjob(self, job: Job, assignment: Dict[int, str], index: int) -> None:
        job.status = JobStatus.COMPLETED
        job.completed_at = self.sim.now
        self.env.metrics.on_completion(job)
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                "job.complete",
                self.node,
                task=job.task.task_id,
                job=job.index,
                response=job.response_time,
            )
