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

**Burst batching** (the ``batching`` attribute, driven by a scenario's
``arrival_batching`` flag): instead of deciding one arrival per dispatch
work item, incoming "Task Arrive" events accumulate in an arrival queue
and the first work item to run drains the whole queue through
:meth:`~repro.sched.aub.AubAnalyzer.admissible_batch` — one prune, one
cache refresh, shared hypothetical totals, and a single ledger
``add_batch`` commit for every accepted arrival in the burst.  Each
arrival still pays its own sampled admission cost on the dispatch thread
(CPU accounting is unchanged); what batching amortizes is the analyzer
bookkeeping and the decision latency of arrivals queued behind the first.

Load-balanced configurations batch too: placements are planned and
tested against one analyzer batch session per burst
(:meth:`~repro.sched.aub.AubAnalyzer.batch_session`), whose overlay
plays the role of the interim ledger commits each placement must
observe, so decisions stay bit-identical to the per-arrival path while
the burst commits through a single ledger ``add_batch``.  Only two
cases re-enter the sequential flow mid-burst (after flushing the open
batch segment, so ordering is preserved): a later job of a periodic
task whose first job is still undecided in the same burst, and — under
AC-per-task + LB-per-job — a cached-accept arrival that may *relocate*
the live reservation, a ledger mutation later decisions must see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
from repro.sched.aub import (
    RESERVED,
    AubAnalyzer,
    BatchCandidate,
    SyntheticUtilizationLedger,
)
from repro.sched.task import Job, TaskSpec


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
            doc="Drain simultaneous arrivals into one batched admission "
            "test (admissible_batch) instead of deciding per event.",
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

    def provide_facet(self, port_name: str) -> Facet:
        if port_name == "admission_state":
            return self.provide_state_facet()
        return super().provide_facet(port_name)

    def connect_receptacle(self, port_name: str, facet: Facet) -> None:
        if port_name == "locator":
            self.connect_locator(facet)
            return
        super().connect_receptacle(port_name, facet)

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
        op = OP_LB_PLAN if self.lb_enabled else OP_ADMISSION_TEST
        cost = self.env.cost_model.sample(op, self.env.cost_rng)
        if self.get_attribute("batching"):
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
        now = self.sim.now
        triage = self._triage(event, now)
        if triage is None:
            return
        record, per_task_ac = triage
        self._admit_fresh(event, record, per_task_ac, now)

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
        record = self._records.setdefault(task.task_id, TaskRecord())
        record.jobs_seen += 1
        per_task_ac = self.get_attribute("ac_strategy") == "T" and task.is_periodic
        if per_task_ac and record.admitted is not None:
            # Cached per-task decision: no admission test, but per-job load
            # balancing may still relocate the reserved assignment.
            if not record.admitted:
                self._send_reject(event, "task rejected at first arrival")
                return None
            if self.get_attribute("lb_strategy") == "J":
                self._try_relocate_reserved(task, record)
            self._send_accept(event, record.assignment)
            return None
        return record, per_task_ac

    def _admit_fresh(
        self,
        event: TaskArriveEvent,
        record: TaskRecord,
        per_task_ac: bool,
        now: float,
    ) -> None:
        """Propose an assignment, run the admission test, publish."""
        job = event.job
        task = job.task
        assignment = self._propose_assignment(job, record, now)
        if assignment is None:
            admitted = False
        else:
            admitted = self._test_and_commit(job, assignment, per_task_ac, now)
        # The assignment dict is owned by this decision path (home/LB plans
        # are built fresh, and nothing mutates a stored plan in place), so
        # the record and the Accept event can share it without copying.
        if per_task_ac:
            record.admitted = admitted
            record.assignment = assignment if admitted else None
        if admitted:
            if self.get_attribute("lb_strategy") == "T" and task.is_periodic:
                record.assignment = assignment
            self._send_accept(event, assignment)
        else:
            self._send_reject(event, "AUB condition (1) would be violated")

    # ------------------------------------------------------------------
    # Batched arrival handling
    # ------------------------------------------------------------------
    def _drain_arrivals(self, _payload=None) -> None:
        """Decide every queued arrival in one batched admission pass."""
        events = self._arrival_queue
        if not events:
            return
        self._arrival_queue = []
        self.batch_calls += 1
        self.batched_arrivals += len(events)
        if self._m_batch_size is not None:
            self._m_batch_size.observe(float(len(events)))
        if self.lb_enabled:
            self._drain_arrivals_lb(events)
            return
        now = self.sim.now
        pending: List[Tuple[TaskArriveEvent, TaskRecord, bool]] = []
        #: Periodic tasks whose first (reserving) job is in ``pending``.
        reserving: set = set()
        deferred: List[TaskArriveEvent] = []
        for event in events:
            task = event.job.task
            if task.task_id in reserving:
                # A later job of a periodic task whose first job is being
                # decided in this very batch (AC per task): its outcome is
                # that first job's cached decision, which exists only
                # after the batch commits — defer, exactly as the
                # sequential path would have found the cache populated.
                deferred.append(event)
                continue
            triage = self._triage(event, now)
            if triage is None:
                continue
            record, per_task_ac = triage
            if per_task_ac:
                reserving.add(task.task_id)
            pending.append((event, record, per_task_ac))
        if pending:
            self._admit_batch(pending, now)
        for event in deferred:
            # The batch populated the per-task cache, so this re-enters
            # the normal sequential flow as a cache hit (or, if the first
            # job expired before deciding, as a fresh admission — the
            # same state the sequential path would see).
            self._decide(event)

    def _drain_arrivals_lb(self, events: List[TaskArriveEvent]) -> None:
        """Batched drain for load-balanced combos.

        Placements are planned and tested against one analyzer batch
        session: the session overlay stands in for the interim ledger
        commits the sequential path interleaves between arrivals, so
        plans and decisions are bit-identical to deciding each arrival
        alone.  Two cases must leave the batch to preserve sequential
        ordering — a later job of a periodic task whose first (reserving)
        job sits in the open segment, and, under AC-per-task +
        LB-per-job, a cached-accept arrival that may *relocate* the live
        reservation (a ledger mutation every later decision must
        observe).  Both flush the open segment first and then re-enter
        the sequential flow, which sees exactly the state the per-arrival
        path would have built.
        """
        now = self.sim.now
        relocating = (
            self.get_attribute("ac_strategy") == "T"
            and self.get_attribute("lb_strategy") == "J"
        )
        segment: List[Tuple[TaskArriveEvent, TaskRecord, bool]] = []
        #: Periodic tasks whose first (reserving) job is in ``segment``.
        reserving: set = set()

        def flush() -> None:
            if segment:
                self._admit_segment_lb(segment, now)
                segment.clear()
            reserving.clear()

        for event in events:
            task = event.job.task
            if task.task_id in reserving:
                flush()
                self._decide(event)
                continue
            if relocating and task.is_periodic:
                record = self._records.get(task.task_id)
                if record is not None and record.admitted:
                    # Cached accept that may relocate the reservation.
                    flush()
                    self._decide(event)
                    continue
            triage = self._triage(event, now)
            if triage is None:
                continue
            record, per_task_ac = triage
            if per_task_ac:
                reserving.add(task.task_id)
            segment.append((event, record, per_task_ac))
        flush()

    def _admit_segment_lb(
        self,
        segment: List[Tuple[TaskArriveEvent, TaskRecord, bool]],
        now: float,
    ) -> None:
        """Plan and decide one contiguous run of fresh LB admissions
        through a single analyzer batch session."""
        locator = self._locator()
        lb = self.get_attribute("lb_strategy")
        # Worst-case demand envelope: every stage of every queued arrival
        # counted on each processor it could be placed on.  Placements
        # chosen below always stay inside it (plans pick from eligible
        # sets; pinned assignments were themselves LB plans), which lets
        # the session screen out registered tasks that no placement of
        # this burst can push over the bound.
        demand: Dict[str, float] = {}
        for event, _record, _per_task_ac in segment:
            task = event.job.task
            for subtask in task.subtasks:
                value = task.subtask_utilization(subtask.index)
                for node in subtask.eligible:
                    demand[node] = demand.get(node, 0.0) + value
        session = self.analyzer.batch_session(now, demand)
        decided: List[
            Tuple[TaskArriveEvent, Optional[Dict[int, str]], bool, bool]
        ] = []
        for event, record, per_task_ac in segment:
            job = event.job
            task = job.task
            if lb == "T" and task.is_periodic and record.assignment is not None:
                # Pinned per-task placement: no Location call, just the
                # admission test (the sequential path's test-and-commit).
                assignment = record.assignment
                admitted = session.try_admit(
                    BatchCandidate(
                        task.visited_processors(assignment),
                        [
                            (
                                assignment[s.index],
                                task.subtask_utilization(s.index),
                            )
                            for s in task.subtasks
                        ],
                    )
                )
            else:
                assignment = locator.location_in_batch(job, session)
                admitted = assignment is not None
            # Records update inside the loop (not after the batch): a
            # later arrival in this very segment may depend on them — the
            # LB-per-task pin, the AC-per-task cached decision.
            if per_task_ac:
                record.admitted = admitted
                record.assignment = assignment if admitted else None
            if admitted and lb == "T" and task.is_periodic:
                record.assignment = assignment
            decided.append((event, assignment, per_task_ac, admitted))
        self._finalize_batch(decided, now)

    def _admit_batch(
        self,
        pending: List[Tuple[TaskArriveEvent, TaskRecord, bool]],
        now: float,
    ) -> None:
        """Home-assignment burst admission through ``admissible_batch``."""
        candidates: List[BatchCandidate] = []
        assignments: List[Dict[int, str]] = []
        for event, _record, _per_task_ac in pending:
            task = event.job.task
            assignment = task.home_assignment()
            assignments.append(assignment)
            candidates.append(
                BatchCandidate(
                    task.visited_processors(assignment),
                    [
                        (assignment[s.index], task.subtask_utilization(s.index))
                        for s in task.subtasks
                    ],
                )
            )
        decisions = self.analyzer.admissible_batch(candidates, now)
        decided: List[
            Tuple[TaskArriveEvent, Optional[Dict[int, str]], bool, bool]
        ] = []
        for (event, record, per_task_ac), assignment, admitted in zip(
            pending, assignments, decisions
        ):
            if per_task_ac:
                record.admitted = admitted
                record.assignment = assignment if admitted else None
            decided.append((event, assignment, per_task_ac, admitted))
        self._finalize_batch(decided, now)

    def _finalize_batch(
        self,
        decided: List[Tuple[TaskArriveEvent, Optional[Dict[int, str]], bool, bool]],
        now: float,
    ) -> None:
        """Commit and publish a batch of decisions.

        One ledger commit for the whole burst: stage contributions in
        decision order (bit-identical floats to per-arrival commits),
        one change notification per touched node — then register, expiry
        scheduling, and Accept/Reject publication per arrival.
        """
        add_entries = []
        for event, assignment, per_task_ac, admitted in decided:
            if not admitted:
                continue
            job = event.job
            task = job.task
            job_index = RESERVED if per_task_ac else job.index
            for subtask in task.subtasks:
                add_entries.append(
                    (
                        assignment[subtask.index],
                        (task.task_id, job_index, subtask.index),
                        task.subtask_utilization(subtask.index),
                    )
                )
        if add_entries:
            self.ledger.add_batch(add_entries, now)
        for event, assignment, per_task_ac, admitted in decided:
            job = event.job
            task = job.task
            if not admitted:
                self._send_reject(event, "AUB condition (1) would be violated")
                continue
            job_index = RESERVED if per_task_ac else job.index
            registry_key = (task.task_id, job_index)
            expiry = None if per_task_ac else job.absolute_deadline
            self.analyzer.register(
                registry_key, task.visited_processors(assignment), expiry
            )
            if not per_task_ac:
                self.sim.schedule_at(
                    job.absolute_deadline, self._expire_job, job, assignment
                )
            self._send_accept(event, assignment)

    def _propose_assignment(
        self, job: Job, record: TaskRecord, now: float
    ) -> Optional[Dict[int, str]]:
        """Choose the assignment plan the admission test will evaluate."""
        task = job.task
        lb = self.get_attribute("lb_strategy")
        if lb == "N":
            return task.home_assignment()
        if lb == "T" and task.is_periodic and record.assignment is not None:
            return record.assignment
        locator = self._locator()
        return locator.location(job, now)

    def _test_and_commit(
        self,
        job: Job,
        assignment: Dict[int, str],
        reserved: bool,
        now: float,
    ) -> bool:
        """Run the admission test for ``assignment``; commit if it passes."""
        task = job.task
        visits = task.visited_processors(assignment)
        contribs: Dict[str, float] = {}
        for subtask in task.subtasks:
            node = assignment[subtask.index]
            contribs[node] = contribs.get(node, 0.0) + task.subtask_utilization(
                subtask.index
            )
        if not self.analyzer.admissible(visits, contribs, now):
            return False
        job_index = RESERVED if reserved else job.index
        for subtask in task.subtasks:
            node = assignment[subtask.index]
            self.ledger.add(
                node,
                (task.task_id, job_index, subtask.index),
                task.subtask_utilization(subtask.index),
                now,
            )
        registry_key = (task.task_id, job_index)
        expiry = None if reserved else job.absolute_deadline
        self.analyzer.register(registry_key, visits, expiry)
        if not reserved:
            self.sim.schedule_at(
                job.absolute_deadline, self._expire_job, job, assignment
            )
        return True

    def _expire_job(self, job: Job, assignment: Dict[int, str]) -> None:
        """Deadline expiry: the job leaves the current task set."""
        now = self.sim.now
        task = job.task
        for subtask in task.subtasks:
            node = assignment[subtask.index]
            self.ledger.remove(node, (task.task_id, job.index, subtask.index), now)
        self.analyzer.unregister((task.task_id, job.index))

    def _try_relocate_reserved(self, task: TaskSpec, record: TaskRecord) -> None:
        """AC-per-task + LB-per-job: move the lifetime reservation if the
        LB finds a better admissible placement for this job."""
        locator = self._locator()
        now = self.sim.now
        proposed = locator.location_for_reserved(task, record.assignment, now)
        if proposed is None or proposed == record.assignment:
            return
        old = record.assignment
        for subtask in task.subtasks:
            self.ledger.remove(
                old[subtask.index], (task.task_id, RESERVED, subtask.index), now
            )
        for subtask in task.subtasks:
            self.ledger.add(
                proposed[subtask.index],
                (task.task_id, RESERVED, subtask.index),
                task.subtask_utilization(subtask.index),
                now,
            )
        self.analyzer.register(
            (task.task_id, RESERVED), task.visited_processors(proposed), None
        )
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
