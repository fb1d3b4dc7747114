"""Admission Control (AC) component.

One AC instance runs on the central task-manager processor.  It consumes
"Task Arrive" events from the task effectors and "Idle Resetting" events
from the idle resetters, runs the AUB admission test (paper equation 1)
over the shared synthetic-utilization ledger, asks the LB component for
placement plans when load balancing is enabled, and publishes "Accept" /
"Reject" events back to the task effectors.

Strategy semantics (paper section 4.2):

* **AC per Task** — the admission test runs only at a periodic task's
  first arrival; its synthetic-utilization contributions are *reserved for
  the task's lifetime* (never reclaimed between jobs), which is efficient
  but pessimistic.  Aperiodic tasks are always tested per arrival (each
  aperiodic job is an independent single-release task).
* **AC per Job** — every job is tested on arrival; contributions expire at
  the job's absolute deadline (and may be reclaimed earlier by idle
  resetting).  Requires the application to tolerate job skipping (C1).

Admission work executes on a dispatch thread of the task-manager CPU, so
concurrent arrivals serialize and queueing delay is measured honestly.

Every decision is one AUB test on one plan.  The plan is the home
assignment without LB, a pinned per-task placement, or a "Location" plan
from the LB, which only plans.  A sequential arrival is tested against
the live ledger (:meth:`~repro.sched.aub.AubAnalyzer.admissible`) and
committed stage by stage.

**Burst batching** (the ``batching`` attribute, driven by a scenario's
``arrival_batching`` flag): instead of deciding one arrival per dispatch
work item, incoming "Task Arrive" events accumulate in an arrival queue
and the first work item to run drains the whole queue.  Fresh
admissions are decided in segments, each through one analyzer session
(:meth:`~repro.sched.aub.AubAnalyzer.batch_session`): plans score nodes
against its overlay, which stands in for the interim ledger commits,
each plan is tested once with ``try_admit``, and the segment commits
through a single ledger ``add_batch``.  Decisions are bit-identical to
the per-arrival path.  Each arrival still pays its own sampled
admission cost on the dispatch thread (CPU accounting is unchanged);
what batching amortizes is the analyzer bookkeeping and the decision
latency of arrivals queued behind the first.

Two cases end the open segment and re-enter the sequential flow, so
ordering is preserved: a later job of a periodic task whose first job
is still undecided in the segment, and, under AC-per-task + LB-per-job,
a cached-accept arrival that may *relocate* the live reservation, a
ledger mutation later decisions must see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ccm.component import AttributeSpec, Component
from repro.ccm.events import (
    AcceptEvent,
    IdleResettingEvent,
    RejectEvent,
    TOPIC_IDLE_RESETTING,
    TOPIC_TASK_ARRIVE,
    TaskArriveEvent,
    accept_topic,
    reject_topic,
)
from repro.ccm.ports import EventSinkPort, EventSourcePort, Facet, Receptacle
from repro.core.cost_model import OP_ADMISSION_TEST, OP_IR_UPDATE, OP_LB_PLAN
from repro.core.runtime import RuntimeEnv
from repro.core.strategies import (
    ACStrategy,
    IRStrategy,
    LBStrategy,
    StrategyCombo,
)
from repro.cpu.thread import WorkItem
from repro.errors import ComponentError
from repro.sched.aub import RESERVED, AubAnalyzer, SyntheticUtilizationLedger
from repro.sched.task import Job, TaskSpec

#: Reject reason of an arrival that fails the admission test.
AUB_REJECT = "AUB condition (1) would be violated"

#: One decided arrival of a burst: event, plan, reserved?, admitted?, visits.
_Decided = Tuple[TaskArriveEvent, Dict[int, str], bool, bool, List[str]]


@dataclass
class TaskRecord:
    """Per-task state kept by the admission controller."""

    #: AC-per-Task cached admission decision (None until first decision).
    admitted: Optional[bool] = None
    #: Assignment fixed per task (AC per task, or LB per task).
    assignment: Optional[Dict[int, str]] = None
    jobs_seen: int = 0


@dataclass(frozen=True)
class AdmissionState:
    """Facet object shared with the LB component: the live ledger and
    analyzer (the LB must see the same synthetic utilizations the AC
    admits against)."""

    ledger: SyntheticUtilizationLedger
    analyzer: AubAnalyzer


class AdmissionControllerComponent(Component):
    """AUB-based on-line admission control (strategies: per task/per job)."""

    ATTRIBUTES = {
        "ac_strategy": AttributeSpec(
            str,
            default="J",
            validator=lambda v: v in ("T", "J"),
            doc="T: admission test at first task arrival; J: per job.",
        ),
        "ir_strategy": AttributeSpec(
            str,
            default="N",
            validator=lambda v: v in ("N", "T", "J"),
            doc="Idle resetting scope; must be consistent with ac_strategy.",
        ),
        "lb_strategy": AttributeSpec(
            str,
            default="N",
            validator=lambda v: v in ("N", "T", "J"),
            doc="No-LB/LB-per-task/LB-per-job (the paper's AC attribute).",
        ),
        "batching": AttributeSpec(
            bool,
            default=False,
            doc="Drain queued arrivals through one analyzer batch session "
            "per segment instead of deciding per event.",
        ),
    }

    def __init__(self, name: str, env: RuntimeEnv) -> None:
        super().__init__(name)
        self.env = env
        self.ledger: Optional[SyntheticUtilizationLedger] = None
        self.analyzer: Optional[AubAnalyzer] = None
        self._records: Dict[str, TaskRecord] = {}
        self._source: Optional[EventSourcePort] = None
        self._locator = Receptacle(self, "locator")
        self._thread = None
        #: Arrivals awaiting a batched decision (batching enabled only).
        self._arrival_queue: List[TaskArriveEvent] = []
        self.admitted_jobs = 0
        self.rejected_jobs = 0
        self.idle_resets_applied = 0
        self.batch_calls = 0
        self.batched_arrivals = 0
        # The immutable strategy attributes, copied at activation so the
        # per-arrival path reads plain attributes.
        self._ac_strategy: Optional[str] = None
        self._lb_strategy: Optional[str] = None
        self._batching = False
        # Pre-bound metric children (armed runs only): one None-check on
        # the decision path instead of registry lookups per event.
        self._m_decisions_accept = None
        self._m_decisions_reject = None
        self._m_decision_latency = None
        self._m_queue_depth = None
        self._m_batch_size = None
        self._m_reclaim_size = None

    # ------------------------------------------------------------------
    # Strategy accessors
    # ------------------------------------------------------------------
    @property
    def combo(self) -> StrategyCombo:
        return StrategyCombo(
            ACStrategy(self.get_attribute("ac_strategy")),
            IRStrategy(self.get_attribute("ir_strategy")),
            LBStrategy(self.get_attribute("lb_strategy")),
        )

    @property
    def lb_enabled(self) -> bool:
        return self.get_attribute("lb_strategy") != "N"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_install(self, container) -> None:
        self._source = EventSourcePort(self, "decisions")
        arrive_sink = EventSinkPort(self, "task_arrive", self._on_task_arrive)
        arrive_sink.subscribe(TOPIC_TASK_ARRIVE)
        reset_sink = EventSinkPort(self, "idle_resetting", self._on_idle_reset)
        reset_sink.subscribe(TOPIC_IDLE_RESETTING)

    def provide_state_facet(self) -> Facet:
        """The facet the LB component connects to (shared ledger)."""
        if self.ledger is None:
            self._initialize_state()
        return Facet(self, "admission_state", AdmissionState(self.ledger, self.analyzer))

    def connect_locator(self, facet: Facet) -> None:
        """Wire the receptacle for 'Location' calls on the LB component."""
        self._locator.connect(facet)

    def _initialize_state(self) -> None:
        self.ledger = SyntheticUtilizationLedger(self.env.app_nodes)
        self.analyzer = AubAnalyzer(self.ledger)

    def on_activate(self) -> None:
        self.combo.validate()
        if self.lb_enabled and not self._locator.connected:
            raise ComponentError(
                f"AC {self.name!r}: lb_strategy="
                f"{self.get_attribute('lb_strategy')!r} but no LB connected"
            )
        if self.ledger is None:
            self._initialize_state()
        self._ac_strategy = self.get_attribute("ac_strategy")
        self._lb_strategy = self.get_attribute("lb_strategy")
        self._batching = self.get_attribute("batching")
        self._thread = self.processor.new_thread(f"{self.name}.dispatch", 0.0)
        registry = self.env.metrics_registry
        if registry is not None:
            decisions = registry.counter(
                "repro_admission_decisions_total",
                "Admission decisions by outcome.",
                ("outcome",),
            )
            self._m_decisions_accept = decisions.labels("accept")
            self._m_decisions_reject = decisions.labels("reject")
            self._m_decision_latency = registry.histogram(
                "repro_admission_decision_seconds",
                "Simulated arrival-to-decision latency per job.",
            ).labels()
            self._m_queue_depth = registry.gauge(
                "repro_admission_queue_depth",
                "High-water mark of the batched arrival queue.",
            ).labels()
            self._m_batch_size = registry.histogram(
                "repro_admission_batch_size",
                "Arrivals decided per batched admission pass.",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
            ).labels()
            self._m_reclaim_size = registry.histogram(
                "repro_ledger_reclaim_batch_entries",
                "Ledger entries reclaimed per idle-resetting batch.",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
            ).labels()

    # ------------------------------------------------------------------
    # Task Arrive handling
    # ------------------------------------------------------------------
    def _on_task_arrive(self, event: TaskArriveEvent) -> None:
        op = OP_ADMISSION_TEST if self._lb_strategy == "N" else OP_LB_PLAN
        cost = self.env.cost_model.sample(op, self.env.cost_rng)
        if self._batching:
            # Queue the arrival; the work item that completes first drains
            # the whole queue in one batched decision pass, later ones
            # find it empty.  Every arrival still charges its own sampled
            # admission cost to the dispatch thread.
            self._arrival_queue.append(event)
            if self._m_queue_depth is not None:
                self._m_queue_depth.set(
                    max(self._m_queue_depth.value, len(self._arrival_queue))
                )
            self.processor.submit(
                self._thread,
                WorkItem(cost, self._drain_arrivals, label="admit:batch"),
            )
            return
        self.processor.submit(
            self._thread,
            WorkItem(cost, self._decide, event, label=f"admit:{event.job.task.task_id}"),
        )

    def _decide(self, event: TaskArriveEvent) -> None:
        """Sequential path: plan, one test against the live ledger, and a
        stage-by-stage commit."""
        now = self.sim.now
        triage = self._triage(event, now)
        if triage is None:
            return
        record, per_task_ac = triage
        job = event.job
        task = job.task
        assignment = self._plan(job, record, self.ledger)
        visits = task.visited_processors(assignment)
        admitted = self.analyzer.admissible(
            visits, self._contributions(task, assignment), now
        )
        if admitted:
            job_index = RESERVED if per_task_ac else job.index
            for subtask in task.subtasks:
                self.ledger.add(
                    assignment[subtask.index],
                    (task.task_id, job_index, subtask.index),
                    task.subtask_utilization(subtask.index),
                    now,
                )
        self._record(record, task, per_task_ac, assignment, admitted)
        self._publish(event, assignment, per_task_ac, admitted, visits)

    def _triage(
        self, event: TaskArriveEvent, now: float
    ) -> Optional[Tuple[TaskRecord, bool]]:
        """Shared per-arrival triage for the sequential and batched paths:
        deadline expiry, record bookkeeping, and the per-task cached
        decision.  Returns ``None`` when the event was fully handled,
        else ``(record, per_task_ac)`` for a fresh admission test."""
        job = event.job
        task = job.task
        if job.absolute_deadline <= now:
            # Queueing at the AC (or a stale event) consumed the job's
            # whole window; releasing it could not meet the deadline.
            self._send_reject(event, "deadline expired before admission")
            return None
        record = self._records.get(task.task_id)
        if record is None:
            record = self._records[task.task_id] = TaskRecord()
        record.jobs_seen += 1
        per_task_ac = self._ac_strategy == "T" and task.is_periodic
        if per_task_ac and record.admitted is not None:
            # Cached per-task decision: no admission test, but per-job load
            # balancing may still relocate the reserved assignment.
            if not record.admitted:
                self._send_reject(event, "task rejected at first arrival")
                return None
            if self._lb_strategy == "J":
                self._try_relocate_reserved(task, record)
            self._send_accept(event, record.assignment)
            return None
        return record, per_task_ac

    def _plan(self, job: Job, record: TaskRecord, source) -> Dict[int, str]:
        """The assignment the admission test evaluates: the home placement
        without LB, the pinned placement of an LB-per-task periodic task,
        else an LB plan scored against ``source`` (the live ledger, or a
        burst's session)."""
        task = job.task
        lb = self._lb_strategy
        if lb == "N":
            return task.home_assignment()
        if lb == "T" and task.is_periodic and record.assignment is not None:
            return record.assignment
        return self._locator().location(job, source)

    @staticmethod
    def _contributions(task: TaskSpec, assignment: Dict[int, str]) -> Dict[str, float]:
        """node -> the synthetic utilization ``assignment`` adds there."""
        contribs: Dict[str, float] = {}
        for subtask in task.subtasks:
            node = assignment[subtask.index]
            contribs[node] = contribs.get(node, 0.0) + task.subtask_utilization(
                subtask.index
            )
        return contribs

    def _record(
        self,
        record: TaskRecord,
        task: TaskSpec,
        per_task_ac: bool,
        assignment: Dict[int, str],
        admitted: bool,
    ) -> None:
        """Cache what the task's later jobs reuse: the AC-per-task decision
        and the LB-per-task placement.  Plans are built fresh and never
        mutated, so the record and the Accept event share the dict."""
        if per_task_ac:
            record.admitted = admitted
            record.assignment = assignment if admitted else None
        if admitted and self._lb_strategy == "T" and task.is_periodic:
            record.assignment = assignment

    def _publish(
        self,
        event: TaskArriveEvent,
        assignment: Dict[int, str],
        per_task_ac: bool,
        admitted: bool,
        visits: List[str],
    ) -> None:
        """Publish a decision whose ledger commit is done: an accept is
        registered (until its deadline, unless reserved) first."""
        if not admitted:
            self._send_reject(event, AUB_REJECT)
            return
        job = event.job
        task = job.task
        if per_task_ac:
            self.analyzer.register((task.task_id, RESERVED), visits, None)
        else:
            self.analyzer.register(
                (task.task_id, job.index), visits, job.absolute_deadline
            )
            self.sim.schedule_at(
                job.absolute_deadline, self._expire_job, job, assignment
            )
        self._send_accept(event, assignment)

    # ------------------------------------------------------------------
    # Batched arrival handling
    # ------------------------------------------------------------------
    def _drain_arrivals(self, _payload=None) -> None:
        """Decide every queued arrival, fresh admissions in bursts.

        An arrival whose sequential decision must observe the commits of
        the arrivals before it ends the open segment and is decided
        alone: a later job of a periodic task whose first (reserving) job
        is in the segment, and, under AC-per-task + LB-per-job, a cached
        accept that may relocate its reservation.
        """
        events = self._arrival_queue
        if not events:
            return
        self._arrival_queue = []
        self.batch_calls += 1
        self.batched_arrivals += len(events)
        if self._m_batch_size is not None:
            self._m_batch_size.observe(float(len(events)))
        now = self.sim.now
        relocating = self._ac_strategy == "T" and self._lb_strategy == "J"
        segment: List[Tuple[TaskArriveEvent, TaskRecord, bool]] = []
        #: Periodic tasks whose first (reserving) job is in ``segment``.
        reserving: set = set()
        for event in events:
            task = event.job.task
            alone = task.task_id in reserving
            if not alone and relocating and task.is_periodic:
                record = self._records.get(task.task_id)
                alone = record is not None and bool(record.admitted)
            if alone:
                if segment:
                    self._admit_burst(segment, now)
                    segment = []
                reserving.clear()
                self._decide(event)
                continue
            triage = self._triage(event, now)
            if triage is None:
                continue
            record, per_task_ac = triage
            if per_task_ac:
                reserving.add(task.task_id)
            segment.append((event, record, per_task_ac))
        if segment:
            self._admit_burst(segment, now)

    def _admit_burst(
        self,
        segment: Sequence[Tuple[TaskArriveEvent, TaskRecord, bool]],
        now: float,
    ) -> None:
        """Plan and test a segment of fresh admissions in one analyzer
        session, commit the accepts with one ``add_batch``, then register
        and publish in arrival order."""
        homes_only = self._lb_strategy == "N"
        # Worst-case demand envelope: every stage of every arrival counted
        # on each processor a plan may put it on (its home without LB, any
        # eligible one otherwise; pinned placements were LB plans).  The
        # session screens out registered tasks no placement of this burst
        # can push over the bound.
        demand: Dict[str, float] = {}
        for event, _record, _per_task_ac in segment:
            task = event.job.task
            for subtask in task.subtasks:
                value = task.subtask_utilization(subtask.index)
                for node in (subtask.home,) if homes_only else subtask.eligible:
                    demand[node] = demand.get(node, 0.0) + value
        session = self.analyzer.batch_session(now, demand)
        entries = []
        decided: List[_Decided] = []
        for event, record, per_task_ac in segment:
            job = event.job
            task = job.task
            assignment = self._plan(job, record, session)
            visits = task.visited_processors(assignment)
            stages = [
                (assignment[s.index], task.subtask_utilization(s.index))
                for s in task.subtasks
            ]
            admitted = session.try_admit(visits, stages)
            if admitted:
                job_index = RESERVED if per_task_ac else job.index
                for subtask, (node, value) in zip(task.subtasks, stages):
                    entries.append(
                        (node, (task.task_id, job_index, subtask.index), value)
                    )
            # Records update inside the loop: a later arrival in this very
            # segment may depend on them (the LB-per-task pin, the
            # AC-per-task cached decision).
            self._record(record, task, per_task_ac, assignment, admitted)
            decided.append((event, assignment, per_task_ac, admitted, visits))
        if entries:
            self.ledger.add_batch(entries, now)
        for decision in decided:
            self._publish(*decision)

    def _expire_job(self, job: Job, assignment: Dict[int, str]) -> None:
        """Deadline expiry: the job leaves the current task set."""
        now = self.sim.now
        task = job.task
        for subtask in task.subtasks:
            node = assignment[subtask.index]
            self.ledger.remove(node, (task.task_id, job.index, subtask.index), now)
        self.analyzer.unregister((task.task_id, job.index))

    def _try_relocate_reserved(self, task: TaskSpec, record: TaskRecord) -> None:
        """AC-per-task + LB-per-job: move the lifetime reservation when the
        LB plans another placement and the move passes the admission test."""
        current = record.assignment
        proposed = self._locator().location_for_reserved(task, current)
        if proposed is None:
            return
        now = self.sim.now
        # The move's deltas: the new placement minus the reservation.
        delta = self._contributions(task, proposed)
        for subtask in task.subtasks:
            node = current[subtask.index]
            delta[node] = delta.get(node, 0.0) - task.subtask_utilization(
                subtask.index
            )
        visits = task.visited_processors(proposed)
        key = (task.task_id, RESERVED)
        if not self.analyzer.admissible(visits, delta, now, exclude=key):
            return
        for subtask in task.subtasks:
            self.ledger.remove(
                current[subtask.index], (task.task_id, RESERVED, subtask.index), now
            )
        for subtask in task.subtasks:
            self.ledger.add(
                proposed[subtask.index],
                (task.task_id, RESERVED, subtask.index),
                task.subtask_utilization(subtask.index),
                now,
            )
        self.analyzer.register(key, visits, None)
        record.assignment = proposed

    # ------------------------------------------------------------------
    # Decision publication
    # ------------------------------------------------------------------
    def _send_accept(self, event: TaskArriveEvent, assignment: Dict[int, str]) -> None:
        job = event.job
        self.admitted_jobs += 1
        if self._m_decisions_accept is not None:
            self._m_decisions_accept.inc()
            self._m_decision_latency.observe(self.sim.now - job.arrival_time)
        release_node = assignment[0]
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                "ac.accept",
                self.node,
                task=job.task.task_id,
                job=job.index,
                release_node=release_node,
            )
        self._source.push(
            release_node,
            accept_topic(release_node),
            AcceptEvent(
                job=job,
                # Receivers (task effectors) copy on receipt; the decision
                # path owns this dict, so no defensive copy is needed here.
                assignment=assignment,
                arrival_node=event.arrival_node,
                release_node=release_node,
            ),
        )

    def _send_reject(self, event: TaskArriveEvent, reason: str) -> None:
        job = event.job
        self.rejected_jobs += 1
        if self._m_decisions_reject is not None:
            self._m_decisions_reject.inc()
            self._m_decision_latency.observe(self.sim.now - job.arrival_time)
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                "ac.reject",
                self.node,
                task=job.task.task_id,
                job=job.index,
                reason=reason,
            )
        self._source.push(
            event.arrival_node,
            reject_topic(event.arrival_node),
            RejectEvent(job=job, arrival_node=event.arrival_node, reason=reason),
        )

    # ------------------------------------------------------------------
    # Idle Resetting handling
    # ------------------------------------------------------------------
    def _on_idle_reset(self, event: IdleResettingEvent) -> None:
        cost = self.env.cost_model.sample(OP_IR_UPDATE, self.env.cost_rng)
        self.env.overhead.record_ir_ac_side(cost)
        self.processor.submit(
            self._thread,
            WorkItem(cost, self._apply_idle_reset, event, label="idle_reset"),
        )

    def _apply_idle_reset(self, event: IdleResettingEvent) -> None:
        now = self.sim.now
        # One batch-remove per idle period: a single AUB cache refresh no
        # matter how many subjobs the idle processor reclaimed.
        self.idle_resets_applied += self.ledger.remove_batch(
            ((event.node, key) for key in event.entries), now
        )
        if self._m_reclaim_size is not None and event.entries:
            self._m_reclaim_size.observe(float(len(event.entries)))
        if self.tracer.enabled:
            self.tracer.record(
                now, "ac.idle_reset", self.node, entries=len(event.entries)
            )
