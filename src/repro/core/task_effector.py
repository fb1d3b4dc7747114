"""Task Effector (TE) component.

One TE instance runs on each application processor (paper Figure 1).  When
a task arrives, the TE puts it into a waiting queue and pushes a "Task
Arrive" event to the AC component; the job is held until an "Accept" event
releases it (or a "Reject" discards it).

The ``release_mode`` attribute is the paper's Per-job/Per-task attribute:
under ``per_task``, once a periodic task has been admitted (and its
assignment fixed), subsequent jobs are released immediately on arrival
without consulting the AC.  The middleware builder sets ``per_task``
exactly when the admission controller runs per task *and* load balancing
is not per job — with per-job load balancing every job still travels
through the AC so the LB can reconsider its placement.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ccm.component import AttributeSpec, Component
from repro.ccm.events import (
    AcceptEvent,
    RejectEvent,
    TOPIC_ACCEPT,
    TOPIC_REJECT,
    TOPIC_TASK_ARRIVE,
    TaskArriveEvent,
)
from repro.ccm.ports import EventSinkPort, EventSourcePort
from repro.core.cost_model import (
    OP_HOLD_AND_PUSH,
    OP_RELEASE,
    OP_RELEASE_DUPLICATE,
)
from repro.core.runtime import RuntimeEnv
from repro.core.strategies import LBStrategy
from repro.errors import ComponentError
from repro.sched.task import Job, JobStatus


class TaskEffectorComponent(Component):
    """Holds arriving jobs until the admission controller decides."""

    ATTRIBUTES = {
        "processor_id": AttributeSpec(
            str, required=True, doc="Name of the hosting application processor."
        ),
        "release_mode": AttributeSpec(
            str,
            default="per_job",
            validator=lambda v: v in ("per_job", "per_task"),
            mutable=True,
            doc="per_task: admitted periodic tasks release later jobs "
            "immediately; per_job: every job awaits an Accept event.",
        ),
        "ac_node": AttributeSpec(
            str,
            default="",
            doc="Processor hosting this TE's admission controller; empty "
            "means the central task manager.  The decentralized AC "
            "extension points each TE at its local controller.",
        ),
    }

    def __init__(self, name: str, env: RuntimeEnv) -> None:
        super().__init__(name)
        self.env = env
        #: Jobs held awaiting an admission decision, keyed by job key.
        self.waiting: Dict[Tuple[str, int], Job] = {}
        #: Cached per-task decisions: task_id -> (admitted, assignment).
        self._task_cache: Dict[str, Tuple[bool, Optional[Dict[int, str]]]] = {}
        self._source: Optional[EventSourcePort] = None
        #: The immutable ``ac_node`` attribute, copied at activation.
        self._ac_node = ""
        self.jobs_held = 0
        self.jobs_released = 0
        self.jobs_rejected = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_install(self, container) -> None:
        self._source = EventSourcePort(self, "decision_request")
        accept_sink = EventSinkPort(self, "accept", self._on_accept)
        accept_sink.subscribe(TOPIC_ACCEPT)
        reject_sink = EventSinkPort(self, "reject", self._on_reject)
        reject_sink.subscribe(TOPIC_REJECT)

    def on_activate(self) -> None:
        if self.get_attribute("processor_id") != self.node:
            raise ComponentError(
                f"TE {self.name!r}: processor_id attribute "
                f"{self.get_attribute('processor_id')!r} does not match "
                f"deployment node {self.node!r}"
            )
        self._ac_node = self.get_attribute("ac_node")
        self.env.task_effectors[self.node] = self

    # ------------------------------------------------------------------
    # Arrival handling (invoked by the workload driver)
    # ------------------------------------------------------------------
    def task_arrived(self, job: Job) -> None:
        """A job of ``job.task`` arrived on this processor."""
        self.env.metrics.on_arrival(job)
        task = job.task
        if task.is_periodic and self.get_attribute("release_mode") == "per_task":
            cached = self._task_cache.get(task.task_id)
            if cached is not None:
                self._release_from_cache(job, cached)
                return
        self.waiting[job.key] = job
        self.jobs_held += 1
        push_cost = self.env.cost_model.sample(OP_HOLD_AND_PUSH, self.env.cost_rng)
        self.sim.schedule(push_cost, self._push_task_arrive, job)

    def _push_task_arrive(self, job: Job) -> None:
        # The job may have been resolved while the hold/push cost elapsed
        # (not possible in the current protocol, but cheap to guard).
        if job.key not in self.waiting:
            return
        destination = self._ac_node or self.env.manager_node
        self._source.push(
            destination,
            TOPIC_TASK_ARRIVE,
            TaskArriveEvent(job=job, arrival_node=self.node),
        )

    def _release_from_cache(
        self, job: Job, cached: Tuple[bool, Optional[Dict[int, str]]]
    ) -> None:
        admitted, assignment = cached
        if not admitted:
            job.status = JobStatus.REJECTED
            self.jobs_rejected += 1
            self.env.metrics.on_rejection(job)
            return
        assert assignment is not None
        release_node = assignment[0]
        if release_node == self.node:
            cost = self.env.cost_model.sample(OP_RELEASE, self.env.cost_rng)
            self.sim.schedule(cost, self._do_release, job, assignment)
        else:
            # The task was re-allocated at admission time; forward the
            # release to the duplicate's TE (one network hop).
            remote = self.env.task_effectors[release_node]
            cost = self.env.cost_model.sample(
                OP_RELEASE_DUPLICATE, self.env.cost_rng
            )
            self.env.network.send(
                self.node,
                release_node,
                (job, assignment, cost),
                remote._forwarded_release,
            )

    def _forwarded_release(self, payload) -> None:
        job, assignment, cost = payload
        self.sim.schedule(cost, self._do_release, job, assignment)

    # ------------------------------------------------------------------
    # Decision events from the admission controller
    # ------------------------------------------------------------------
    def _on_accept(self, event: AcceptEvent) -> None:
        job = event.job
        if event.arrival_node == self.node:
            self.waiting.pop(job.key, None)
        else:
            # Re-allocated release: the arrival-node TE must drop its held
            # copy and learn the cached decision.  This cross-node call is
            # bookkeeping only (zero virtual time); the duplicate TE holds
            # the task state it needs.
            arrival_te = self.env.task_effectors.get(event.arrival_node)
            if arrival_te is not None:
                arrival_te._note_remote_decision(event)
        self._maybe_cache(job, admitted=True, assignment=dict(event.assignment))
        op = OP_RELEASE_DUPLICATE if event.reallocated else OP_RELEASE
        cost = self.env.cost_model.sample(op, self.env.cost_rng)
        self.sim.schedule(cost, self._finish_accept, event)

    def _finish_accept(self, event: AcceptEvent) -> None:
        job = event.job
        delay = self.sim.now - job.arrival_time
        lb_enabled = self.env.combo.lb is not LBStrategy.NONE
        self.env.overhead.record_admission_path(
            delay, lb_enabled=lb_enabled, reallocated=event.reallocated
        )
        self._do_release(job, dict(event.assignment))

    def _do_release(self, job: Job, assignment: Dict[int, str]) -> None:
        job.status = JobStatus.RELEASED
        job.released_at = self.sim.now
        job.release_node = self.node
        job.assignment = dict(assignment)
        self.jobs_released += 1
        self.env.metrics.on_release(job)
        self.env.subtask_instances[job.task.task_id, 0, self.node].release(
            job, assignment
        )

    def _on_reject(self, event: RejectEvent) -> None:
        job = event.job
        self.waiting.pop(job.key, None)
        job.status = JobStatus.REJECTED
        self.jobs_rejected += 1
        self.env.metrics.on_rejection(job)
        self._maybe_cache(job, admitted=False, assignment=None)

    def _note_remote_decision(self, event: AcceptEvent) -> None:
        """Called by the release-node TE when a held job was re-allocated."""
        self.waiting.pop(event.job.key, None)
        self._maybe_cache(
            event.job, admitted=True, assignment=dict(event.assignment)
        )

    def _maybe_cache(
        self, job: Job, admitted: bool, assignment: Optional[Dict[int, str]]
    ) -> None:
        if not job.task.is_periodic:
            return
        if self.get_attribute("release_mode") != "per_task":
            return
        self._task_cache.setdefault(job.task.task_id, (admitted, assignment))
