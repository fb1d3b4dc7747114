"""First/Intermediate (F/I) and Last Subtask components.

Each deployed instance executes one subtask of one end-to-end task on one
processor (original or duplicate), on a dispatching thread at a fixed
priority (the task's end-to-end deadline — EDMS).  The F/I component has
an extra "Trigger" event source that initiates the next subtask; the Last
Subtask component instead records job completion.  Both call the local IR
component's "Complete" facet when a subjob finishes.

A Trigger goes to ``TOPIC_TRIGGER`` on the node the job's assignment
names for the next stage.  Each application node has one route for that
topic (:func:`bind_trigger_routes`), which finds the stage the Trigger
names as the task effector finds stage 0: by ``(task, stage, node)`` in
``RuntimeEnv.subtask_instances``.  A replica subscribes nothing itself.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.ccm.component import AttributeSpec, Component
from repro.ccm.events import TOPIC_TRIGGER, TriggerEvent
from repro.ccm.ports import EventSourcePort, Facet
from repro.core.runtime import RuntimeEnv
from repro.cpu.thread import WorkItem
from repro.errors import ComponentError, PortError, SimulationError
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
        #: The local IR's "Complete" facet: the plan's ``ir_complete``
        #: connection, held without a receptacle object per replica.
        self._ir_complete: Optional[Facet] = None
        self.subjobs_executed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def connect_ir(self, facet: Facet) -> None:
        """Connect the local IR's "Complete" facet."""
        if self._ir_complete is not None:
            raise PortError(f"IR link of {self.name!r} already connected")
        self._ir_complete = facet

    def on_activate(self) -> None:
        attributes = self._attributes
        self._thread = self.processor.new_thread(
            f"{self.name}.dispatch", attributes["priority"]
        )
        key = (attributes["task_id"], attributes["subtask_index"], self.node)
        self.env.subtask_instances[key] = self

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
            self._thread, WorkItem(cost, self._subjob_finished, (job, assignment))
        )

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
        ir_complete = self._ir_complete
        if ir_complete is not None and attributes["ir_mode"] != "N":
            ir_complete.obj.complete(job, index)
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
        self._trigger_out.push(
            assignment[next_index],
            TOPIC_TRIGGER,
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


def bind_trigger_routes(env: RuntimeEnv) -> None:
    """Subscribe one ``TOPIC_TRIGGER`` route on each application node.

    A deployment binds one route per node however many replicas it
    installs: the route finds the stage a Trigger names when the Trigger
    arrives (:func:`_trigger_route`).
    """
    for node in env.app_nodes:
        env.federation.subscribe(
            node, TOPIC_TRIGGER, _trigger_route(env.subtask_instances, node)
        )


def _trigger_route(
    instances: Dict[Tuple[str, int, str], _SubtaskComponentBase], node: str
) -> Callable[[TriggerEvent], None]:
    """The handler of ``node``'s Trigger route: release the stage the
    Trigger names, found by ``(task, stage, node)`` in ``instances``.

    A Trigger for a stage not deployed on ``node`` raises
    :class:`SimulationError` naming the task, the stage and the node.
    """

    def deliver(event: TriggerEvent) -> None:
        job = event.job
        try:
            stage = instances[job.task.task_id, event.next_index, node]
        except KeyError:
            raise SimulationError(
                f"Trigger for task {job.task.task_id!r} stage "
                f"{event.next_index}: no stage deployed on node {node!r}"
            ) from None
        stage.release(job, event.assignment)

    return deliver
