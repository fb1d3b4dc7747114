"""First/Intermediate (F/I) and Last Subtask stages, one table per node.

The paper's Figure 1 draws one F/I or Last Subtask component per (task,
stage, eligible processor).  Here each application node has one
:class:`StageHostComponent`, and each deployed stage is a row of its
table: a :class:`FISubtaskComponent` or :class:`LastSubtaskComponent`
that stands for one such component.  A row executes one subtask of one
end-to-end task on its node, on its own dispatching thread at a fixed
priority (the task's end-to-end deadline — EDMS).  An F/I row triggers
the next stage through its host's one "Trigger" event source; a Last row
records job completion.  Either calls the local IR component's
"Complete" facet, through its host's one link, when a subjob finishes.

A Trigger goes to ``TOPIC_TRIGGER`` on the node the job's assignment
names for the next stage.  Each application node has one route for that
topic (:func:`bind_trigger_routes`), which finds the stage the Trigger
names as the task effector finds stage 0: by ``(task, stage, node)`` in
``RuntimeEnv.subtask_instances``.  A row subscribes nothing itself.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, Optional

from repro.ccm.component import AttributeSpec, Component
from repro.ccm.container import Container
from repro.ccm.events import TOPIC_TRIGGER, TriggerEvent
from repro.ccm.ports import EventSourcePort, Facet
from repro.core.runtime import RuntimeEnv, StageTable
from repro.core.strategies import IRStrategy
from repro.cpu.thread import WorkItem
from repro.errors import ComponentError, PortError
from repro.sched.edms import edms_priority
from repro.sched.task import Job, JobStatus, TaskSpec

#: The values of one deployed stage, checked once per (task, stage) by
#: the rules of :meth:`Component.set_attribute`.
STAGE_ATTRIBUTES = {
    "task_id": AttributeSpec(str, doc="Owning end-to-end task."),
    "subtask_index": AttributeSpec(
        int, validator=lambda v: v >= 0, doc="Stage position in the task chain."
    ),
    "execution_time": AttributeSpec(
        float, validator=lambda v: v > 0,
        doc="Worst-case execution time of one subjob, seconds.",
    ),
    "priority": AttributeSpec(
        float,
        doc="Dispatch priority; EDMS uses the end-to-end deadline "
        "(smaller = more urgent).",
    ),
}


class StageHostComponent(Component):
    """One application node's stage table: the Trigger event source and
    the IR "Complete" link its rows share.  The rows live in
    ``RuntimeEnv.subtask_instances``; the host holds none of them."""

    def __init__(self, name: str, env: RuntimeEnv) -> None:
        super().__init__(name)
        self.env = env
        self._trigger_out: Optional[EventSourcePort] = None
        #: The local IR's "Complete" facet, or None when the combo does
        #: not reset idle time.
        self._ir_complete: Optional[Facet] = None

    def on_install(self, container: Container) -> None:
        self._trigger_out = EventSourcePort(self, "trigger_out")

    def connect_ir(self, facet: Facet) -> None:
        """Connect the local IR's "Complete" facet."""
        if self._ir_complete is not None:
            raise PortError(f"IR link of {self.name!r} already connected")
        self._ir_complete = facet


class StageRow:
    """One deployed stage of one task on its host's node.

    Holds no reference cycle: its host holds no row, and its thread's
    queued work holds it only until the work runs or the run ends.
    """

    __slots__ = (
        "host", "task_id", "index", "execution_time", "subjobs_executed",
        "thread", "__weakref__",
    )

    def __init__(self, host: StageHostComponent, task_id: str, index: int,
                 execution_time: float, priority: float) -> None:
        self.host = host
        self.task_id = task_id
        self.index = index
        self.execution_time = execution_time
        self.subjobs_executed = 0
        self.thread = host.processor.new_thread(
            f"{task_id}.s{index}@{host.node}.dispatch", priority
        )

    @property
    def name(self) -> str:
        """The name of the component the row stands for: ``'P1.s0@app1'``."""
        return f"{self.task_id}.s{self.index}@{self.host.node}"

    # ------------------------------------------------------------------
    # Subjob execution
    # ------------------------------------------------------------------
    def release(self, job: Job, assignment: Dict[int, str]) -> None:
        """Dispatch one subjob of ``job`` on this stage's thread."""
        host = self.host
        index = self.index
        if assignment.get(index) != host.node:
            raise ComponentError(
                f"{self.name!r}: job {job.key} assigned stage {index} to "
                f"{assignment.get(index)!r}, not this node {host.node!r}"
            )
        host.processor.submit(
            self.thread,
            WorkItem(self.execution_time, self._subjob_finished, (job, assignment)),
        )

    def _subjob_finished(self, payload) -> None:
        job, assignment = payload
        host = self.host
        index = self.index
        job.subjob_finish_times[index] = host.sim.now
        self.subjobs_executed += 1
        ir_complete = host._ir_complete
        if ir_complete is not None:
            ir_complete.obj.complete(job, index)
        self._after_subjob(host, job, assignment, index)

    def _after_subjob(self, host: StageHostComponent, job: Job,
                      assignment: Dict[int, str], index: int) -> None:
        raise NotImplementedError


class FISubtaskComponent(StageRow):
    """First or intermediate stage: publishes a Trigger to the successor."""

    __slots__ = ()

    def _after_subjob(self, host, job, assignment, index) -> None:
        next_index = index + 1
        host._trigger_out.push(
            assignment[next_index],
            TOPIC_TRIGGER,
            TriggerEvent(job=job, next_index=next_index, assignment=assignment),
        )


class LastSubtaskComponent(StageRow):
    """Final stage: records end-to-end job completion."""

    __slots__ = ()

    def _after_subjob(self, host, job, assignment, index) -> None:
        job.status = JobStatus.COMPLETED
        job.completed_at = host.sim.now
        host.env.metrics.on_completion(job)


def deploy_stages(
    env: RuntimeEnv,
    containers: Mapping[str, Container],
    tasks: Iterable[TaskSpec],
    replicas: bool,
) -> None:
    """Install one stage host on each application node and add a row for
    each deployed ``(task, stage)``: on every eligible node of the stage
    with ``replicas``, on its home node without.

    Each ``(task, stage)`` has its values checked once, by
    :data:`STAGE_ATTRIBUTES`, under the name of its home row
    (``'P1.s0@app1'``).  A host links its node's IR "Complete" facet only
    when the combo resets idle time.  Each node's Trigger route is bound
    here too (:func:`bind_trigger_routes`).
    """
    bind_trigger_routes(env)
    hosts: Dict[str, StageHostComponent] = {}
    for node in env.app_nodes:
        container = containers[node]
        host = StageHostComponent(f"Stages-{node}", env)
        container.install(host)
        if env.combo.ir is not IRStrategy.NONE:
            host.connect_ir(container.lookup(f"IR-{node}").provide_complete_facet())
        hosts[node] = host
    table = env.subtask_instances
    for task in tasks:
        task_id = task.task_id
        priority = edms_priority(task)
        last_index = task.n_subtasks - 1
        for subtask in task.subtasks:
            index = subtask.index
            execution_time = subtask.execution_time
            nodes = subtask.eligible if replicas else (subtask.home,)
            owner = f"{task_id}.s{index}@{nodes[0]}"
            values = (task_id, index, execution_time, priority)
            for (name, spec), value in zip(STAGE_ATTRIBUTES.items(), values):
                spec.check(name, owner, value)
            cls = LastSubtaskComponent if index == last_index else FISubtaskComponent
            for node in nodes:
                table[task_id, index, node] = cls(
                    hosts[node], task_id, index, execution_time, priority
                )


def bind_trigger_routes(env: RuntimeEnv) -> None:
    """Subscribe one ``TOPIC_TRIGGER`` route on each application node.

    A deployment binds one route per node however many stages it
    deploys: the route finds the stage a Trigger names when the Trigger
    arrives (:func:`_trigger_route`).
    """
    for node in env.app_nodes:
        env.federation.subscribe(
            node, TOPIC_TRIGGER, _trigger_route(env.subtask_instances, node)
        )


def _trigger_route(instances: StageTable, node: str) -> Callable[[TriggerEvent], None]:
    """The handler of ``node``'s Trigger route: release the stage the
    Trigger names, found by ``(task, stage, node)`` in ``instances``
    (which raises :class:`SimulationError` for a stage not deployed on
    ``node``)."""

    def deliver(event: TriggerEvent) -> None:
        job = event.job
        instances[job.task.task_id, event.next_index, node].release(
            job, event.assignment
        )

    return deliver
