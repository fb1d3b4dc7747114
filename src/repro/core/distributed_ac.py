"""Decentralized admission control — the paper's sketched extension.

Paper section 3 adopts a centralized AC/LB architecture but notes:

    "In a distributed architecture the AC components on multiple
    processors may need to coordinate and synchronize with each other in
    order to make correct decisions, because admitting an end-to-end task
    may affect the schedulability of other tasks located on the multiple
    affected processors. ... our real-time component middleware approach
    can be extended to use a more distributed architecture."

This module implements that extension so the trade-off can be measured:
one :class:`DistributedAdmissionControllerComponent` per application
processor, coordinating through a two-phase reserve/commit protocol over
the federated event channel.

Correctness without global state
--------------------------------
A local AC cannot evaluate AUB condition (1) for remote tasks, so commits
convert each admitted task's residual slack into **local utilization
caps**: after admitting task T with post-admission utilizations ``U_j``
over its k visited processors, each participant j stores the cap

    cap_j(T) = f_inverse( f(U_j) + (1 - sum_i f(U_i)) / k )

and thereafter refuses any reservation that would push ``U_j`` above any
live cap.  Every admitted task's condition therefore keeps holding no
matter what other coordinators admit — at the price of conservatism
(slack is partitioned instead of shared) and of two extra network phases
per admission.  ``examples/distributed_vs_centralized.py`` measures both
penalties against the paper's centralized design, and
``tests/test_distributed_ac.py`` asserts the conservatism.

Each admission is one two-phase transaction: the job's coordinator (the
controller on its arrival node) sends one reserve request per visited
processor and, once every vote is in, one commit or abort outcome to
each.  Under an armed fault injector a coordinator retries the missing
participants after :data:`VOTE_TIMEOUT` seconds, doubling the wait per
attempt, and aborts after :data:`MAX_RETRIES` retries (docs/CHAOS.md).

Scope: this extension prototype supports AC-per-job with no idle
resetting and no load balancing (home assignments), the configuration
where the admission mathematics dominates.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import sanitize
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
from repro.core.cost_model import OP_ADMISSION_TEST
from repro.core.middleware import MiddlewareSystem
from repro.core.runtime import RuntimeEnv
from repro.core.strategies import StrategyCombo
from repro.core.subtask import deploy_stages
from repro.core.task_effector import TaskEffectorComponent
from repro.cpu.thread import WorkItem
from repro.errors import ComponentError
from repro.numeric import ordered_sum
from repro.sched.aub import EPSILON, aub_term, aub_term_inverse
from repro.sched.task import Job
from repro.sim.kernel import EventHandle

#: Topics of the two-phase coordination protocol.
TOPIC_RESERVE = "dac_reserve"
TOPIC_VOTE = "dac_vote"
TOPIC_COMMIT = "dac_commit"
#: Seconds a coordinator waits for a round's votes before retrying the
#: missing participants; retry ``n`` waits ``VOTE_TIMEOUT * 2.0 ** n``.
VOTE_TIMEOUT = 0.25
#: Reserve retries per transaction after the first vote timeout; when
#: they run out, the round aborts, releasing every granted reservation.
MAX_RETRIES = 2

# The protocol's messages are immutable NamedTuples: one C-level tuple per
# message.

class ReserveRequest(NamedTuple):
    """Phase 1: coordinator asks a participant to lock utilization."""

    txn: int
    coordinator: str
    job_key: Tuple[str, int]
    delta: float
    expiry: float


class Vote(NamedTuple):
    """Participant's reply: locked (with post-lock utilization) or refused."""

    txn: int
    node: str
    granted: bool
    post_utilization: float = 0.0


class Outcome(NamedTuple):
    """Phase 2: commit (with this participant's cap) or abort."""

    txn: int
    job_key: Tuple[str, int]
    commit: bool
    cap: float = 1.0
    expiry: float = 0.0


class _HomePlan(NamedTuple):
    """How every job of one task is coordinated under home placement."""

    #: Subtask index -> home processor (shared: receivers copy it).
    assignment: Dict[int, str]
    #: Participant -> the task's summed subtask utilization on it.
    deltas: Dict[str, float]
    #: The participants, sorted: reserves and outcomes go out in this order.
    participants: List[str]
    #: The processor of each stage, in chain order (AUB condition (1)).
    visits: Tuple[str, ...]


@dataclass
class _Transaction:
    """Coordinator-side state of one in-flight admission."""

    job: Job
    event: TaskArriveEvent
    plan: _HomePlan
    votes: Dict[str, Vote] = field(default_factory=dict)
    #: Vote-timeout event handle (chaos runs only; None when disarmed).
    timeout_handle: Optional[object] = None
    #: Reserve rounds already retried after a vote timeout.
    attempt: int = 0
    #: Simulated time the round's reserves went out (observability).
    started: float = 0.0


class DistributedAdmissionControllerComponent(Component):
    """Per-processor admission controller with two-phase coordination."""

    ATTRIBUTES = {
        "processor_id": AttributeSpec(
            str, required=True, doc="Application processor this AC guards."
        ),
    }

    _txn_counter = itertools.count(1)

    def __init__(self, name: str, env: RuntimeEnv) -> None:
        super().__init__(name)
        self.env = env
        #: Live local contributions: job key -> utilization on this node.
        self._contribs: Dict[Tuple[str, int], float] = {}
        #: Pending phase-1 locks: txn -> locked utilization.
        self._locks: Dict[int, float] = {}
        #: Running committed + locked total, maintained incrementally so
        #: the hot admission path never re-sums the contribution maps.
        self._total: float = 0.0
        #: Live caps from committed tasks: job key -> max allowed U here.
        self._caps: Dict[Tuple[str, int], float] = {}
        #: (cap, job key) min-heap over ``_caps`` with lazy invalidation:
        #: the binding (smallest) cap is read in O(1) amortized instead of
        #: scanning every live cap per reservation.
        self._cap_heap: List[Tuple[float, Tuple[str, int]]] = []
        #: Task id -> its home plan, computed at the task's first arrival.
        self._plans: Dict[str, _HomePlan] = {}
        self._transactions: Dict[int, _Transaction] = {}
        self._source: Optional[EventSourcePort] = None
        self._thread = None
        self.admitted_jobs = 0
        self.rejected_jobs = 0
        self.reserve_messages = 0
        #: Two-phase rounds initiated: one per coordinated job.
        self.coordination_rounds = 0
        # -- fault tolerance (active only under an armed fault injector) --
        #: Recorded granted votes per txn, resent verbatim on duplicate
        #: reserves so a retry after a lost vote never double-locks.
        self._granted_votes: Dict[int, Vote] = {}
        #: Expiry-backstop event handles for phase-1 locks, keyed by txn
        #: like ``_locks``; cancelled when the round's outcome arrives.
        self._lock_expiry: Dict[int, object] = {}
        #: Fail-silent crash flag (see :meth:`crash`/:meth:`recover`).
        self._crashed = False
        self.vote_timeouts = 0
        self.retries_sent = 0
        self.aborted_transactions = 0
        #: Recovery machinery armed for this run (see :meth:`arm_recovery`).
        self._chaos = False
        # Pre-bound metric children (armed runs only; see on_activate).
        self._m_decisions_accept = None
        self._m_decisions_reject = None
        self._m_decision_latency = None
        self._m_round_trip = None
        #: Unsharded mirror of committed contributions, cross-checked by
        #: :meth:`verify_ledger` (REPRO_SANITIZE=1 only).
        self._shadow: Optional[sanitize.LedgerShadow] = (
            sanitize.LedgerShadow() if sanitize.enabled() else None
        )

    # ------------------------------------------------------------------
    # Local utilization view
    # ------------------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Committed + locked synthetic utilization on this processor."""
        return self._total

    def _min_live_cap(self) -> float:
        heap = self._cap_heap
        while heap:
            cap, key = heap[0]
            if self._caps.get(key) == cap:
                return cap
            heapq.heappop(heap)
        return math.inf

    def _locally_admissible(self, delta: float) -> bool:
        projected = self._total + delta
        if projected >= 1.0 - EPSILON:
            return False
        return projected <= self._min_live_cap() + EPSILON

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_install(self, container) -> None:
        self._source = EventSourcePort(self, "coordination")
        EventSinkPort(self, "task_arrive", self._on_task_arrive).subscribe(
            TOPIC_TASK_ARRIVE
        )
        EventSinkPort(self, "reserve", self._on_reserve).subscribe(TOPIC_RESERVE)
        EventSinkPort(self, "vote", self._on_vote).subscribe(TOPIC_VOTE)
        EventSinkPort(self, "outcome", self._on_outcome).subscribe(TOPIC_COMMIT)

    def on_activate(self) -> None:
        if self.get_attribute("processor_id") != self.node:
            raise ComponentError(
                f"distributed AC {self.name!r}: processor_id mismatch"
            )
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
            self._m_round_trip = registry.histogram(
                "repro_vote_round_trip_seconds",
                "Reserve-to-last-vote round-trip time per coordination "
                "round, labeled by coordinator node.",
                ("node",),
            ).labels(self.node)

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    def arm_recovery(self, chaos: bool) -> None:
        """Arm vote timeouts, retries and lock-expiry backstops for the
        coming run if ``chaos`` (the network carries an armed fault
        injector).

        On a fault-free network every vote and outcome arrives, so the
        recovery machinery would only schedule events it always cancels.
        The injector's window set is fixed before the run starts, so
        :class:`DistributedMiddlewareSystem` works ``chaos`` out once per
        run and hands it to every controller; both modes are deterministic.
        """
        self._chaos = chaos

    def crash(self) -> None:
        """Fail-silent crash: resolve and quarantine all local AC state.

        The network layer already suppresses this node's messages during
        its crash window; this method handles the admission bookkeeping.
        Every in-flight transaction this node coordinates aborts — the
        arrival-node TE holding each job is local, so the reject is pure
        local accounting, keeping arrival conservation intact.  Remote
        participants' locks for those rounds are freed by their expiry
        backstops.  The participant-side ledger shard (locks,
        contributions, caps) is quarantined: cleared now, so a recovered
        node re-admits from an empty shard.  Subtasks of already-released
        jobs keep executing — the fault model crashes the coordination
        layer, not the CPU (cf. docs/CHAOS.md).
        """
        if self._crashed:
            return
        self._crashed = True
        for txn in sorted(self._transactions):
            transaction = self._transactions[txn]
            self._cancel_vote_timeout(transaction)
            self.aborted_transactions += 1
            self._reject(transaction.event, "coordinator crashed")
        self._transactions.clear()
        for txn in list(self._lock_expiry):
            self._cancel_lock_expiry(txn)
        self._locks.clear()
        self._granted_votes.clear()
        if self._shadow is not None:
            for key in self._contribs:
                self._shadow.remove(self.node, key)
        self._contribs.clear()
        self._caps.clear()
        self._cap_heap.clear()
        self._total = 0.0

    def recover(self) -> None:
        """Re-admit a crashed node with an empty ledger shard."""
        self._crashed = False

    def verify_ledger(self) -> None:
        """Cross-check the incremental ledger bookkeeping from scratch.

        Recomputes the running total from the live locks and
        contributions (the chaos suite's no-leak invariant) and, under
        ``REPRO_SANITIZE=1``, verifies the contribution map against the
        unsharded :class:`~repro.sanitize.LedgerShadow` mirror.
        """
        committed = math.fsum(self._contribs.values()) if self._contribs else 0.0
        if self._shadow is not None:
            self._shadow.verify_shard(self.node, self._contribs, committed)
        locked = math.fsum(self._locks.values()) if self._locks else 0.0
        drift = abs(self._total - (locked + committed))
        if drift > sanitize.TOTAL_DRIFT_TOLERANCE:
            raise sanitize.SanitizeViolation(
                f"distributed AC {self.node!r}: running total "
                f"{self._total!r} drifted {drift!r} from the recomputed "
                f"locked+committed sum {locked + committed!r}"
            )

    def _arm_vote_timeout(self, txn: int, attempt: int):
        """Schedule the vote-timeout event for one round (chaos only)."""
        if not self._chaos:
            return None
        return self.sim.schedule(
            VOTE_TIMEOUT * (2.0 ** attempt), self._on_vote_timeout, txn
        )

    @staticmethod
    def _cancel_vote_timeout(transaction: _Transaction) -> None:
        if transaction.timeout_handle is not None:
            EventHandle.cancel(transaction.timeout_handle)
            transaction.timeout_handle = None

    def _arm_lock_expiry(self, txn: int, expiry: float) -> None:
        """Backstop: free an orphaned phase-1 lock at its job's deadline.

        Armed only under chaos; cancelled when the round's outcome
        arrives.  If the coordinator crashed (or its abort was lost),
        the lock — and the vote recorded for resends — are released
        here, so no reservation outlives the job it was for.
        """
        if not self._chaos:
            return
        self._lock_expiry[txn] = self.sim.schedule_at(
            max(self.sim.now, expiry), self._expire_lock, txn
        )

    def _cancel_lock_expiry(self, txn: int) -> None:
        handle = self._lock_expiry.pop(txn, None)
        if handle is not None:
            EventHandle.cancel(handle)

    def _expire_lock(self, txn: int) -> None:
        self._lock_expiry.pop(txn, None)
        locked = self._locks.pop(txn, None)
        if locked is None:
            return
        self._total -= locked
        if not self._locks and not self._contribs:
            self._total = 0.0
        # The recorded vote claims this lock; a later duplicate reserve
        # must re-evaluate instead of resending it.
        self._granted_votes.pop(txn, None)

    # ------------------------------------------------------------------
    # Coordinator role
    # ------------------------------------------------------------------
    def _home_plan(self, task) -> _HomePlan:
        plan = self._plans.get(task.task_id)
        if plan is None:
            assignment = task.home_assignment()
            deltas: Dict[str, float] = {}
            for subtask in task.subtasks:
                node = assignment[subtask.index]
                deltas[node] = deltas.get(node, 0.0) + task.subtask_utilization(
                    subtask.index
                )
            plan = self._plans[task.task_id] = _HomePlan(
                assignment,
                deltas,
                sorted(deltas),
                tuple(assignment[s.index] for s in task.subtasks),
            )
        return plan

    def _on_task_arrive(self, event: TaskArriveEvent) -> None:
        if self._crashed:
            # A crashed node admits nothing; reject immediately (local
            # accounting — the TE holding the job is on this node) so
            # every arrival still resolves exactly once.
            self._reject(event, "node crashed")
            return
        cost = self.env.cost_model.sample(OP_ADMISSION_TEST, self.env.cost_rng)
        self.processor.submit(
            self._thread, WorkItem(cost, self._coordinate, event)
        )

    def _coordinate(self, event: TaskArriveEvent) -> None:
        if self._crashed:
            # The node crashed while the admission cost elapsed.
            self._reject(event, "node crashed")
            return
        job = event.job
        now = self.sim.now
        if job.absolute_deadline <= now:
            self._reject(event, "deadline expired before admission")
            return
        plan = self._home_plan(job.task)
        txn = next(self._txn_counter)
        transaction = _Transaction(job=job, event=event, plan=plan, started=now)
        self._transactions[txn] = transaction
        self.coordination_rounds += 1
        # Armed before the reserves go out: local participants vote
        # synchronously during the push loop and may complete (and
        # cancel) the round before the loop ends.
        transaction.timeout_handle = self._arm_vote_timeout(txn, 0)
        deltas = plan.deltas
        for node in plan.participants:
            request = ReserveRequest(
                txn=txn,
                coordinator=self.node,
                job_key=job.key,
                delta=deltas[node],
                expiry=job.absolute_deadline,
            )
            self.reserve_messages += 1
            self._source.push(node, TOPIC_RESERVE, request)

    def _on_vote(self, vote: Vote) -> None:
        if self._crashed:
            return
        transaction = self._transactions.get(vote.txn)
        if transaction is None:
            return
        transaction.votes[vote.node] = vote
        if len(transaction.votes) < len(transaction.plan.participants):
            return
        self._cancel_vote_timeout(transaction)
        del self._transactions[vote.txn]
        self._finish_transaction(vote.txn, transaction)

    def _on_vote_timeout(self, txn: int) -> None:
        """The round ``txn`` is missing votes past its timeout."""
        transaction = self._transactions.get(txn)
        if transaction is None:
            return
        self.vote_timeouts += 1
        transaction.timeout_handle = None
        if transaction.attempt < MAX_RETRIES:
            transaction.attempt += 1
            job = transaction.job
            for node in transaction.plan.participants:
                if node in transaction.votes:
                    continue
                # Participants memoize granted votes, so a duplicate
                # reserve is answered idempotently (no double-lock).
                self.retries_sent += 1
                self.reserve_messages += 1
                self._source.push(
                    node,
                    TOPIC_RESERVE,
                    ReserveRequest(
                        txn=txn,
                        coordinator=self.node,
                        job_key=job.key,
                        delta=transaction.plan.deltas[node],
                        expiry=job.absolute_deadline,
                    ),
                )
            transaction.timeout_handle = self._arm_vote_timeout(
                txn, transaction.attempt
            )
            return
        # Out of retries: abort, releasing every granted reservation.
        # Participants whose vote was lost in flight still hold a lock,
        # so the abort goes to every participant (a participant that
        # never locked ignores it); a lost abort is backstopped by the
        # participant's lock expiry.
        del self._transactions[txn]
        self.aborted_transactions += 1
        for node in transaction.plan.participants:
            self._source.push(
                node,
                TOPIC_COMMIT,
                Outcome(txn=txn, job_key=transaction.job.key, commit=False),
            )
        self._reject(transaction.event, "coordination timed out")

    def _finish_transaction(self, txn: int, transaction: _Transaction) -> None:
        if self._m_round_trip is not None:
            self._m_round_trip.observe(self.sim.now - transaction.started)
        votes = transaction.votes
        all_granted = all(v.granted for v in votes.values())
        condition_sum = 0.0
        job = transaction.job
        plan = transaction.plan
        # Retried rounds can outlast the job's deadline; committing then
        # would pair an instantly-expiring reservation with a released
        # job.  Chaos-gated: without faults a round always completes in
        # a few network hops, well inside any deadline.
        expired = (
            transaction.attempt > 0 or self._chaos
        ) and job.absolute_deadline <= self.sim.now
        if all_granted and not expired:
            condition_sum = ordered_sum(
                aub_term(votes[node].post_utilization) for node in plan.visits
            )
            all_granted = condition_sum <= 1.0 + EPSILON
        if not all_granted or expired:
            for node in plan.participants:
                self._source.push(
                    node,
                    TOPIC_COMMIT,
                    Outcome(txn=txn, job_key=job.key, commit=False),
                )
            self._reject(
                transaction.event,
                "deadline expired during coordination"
                if expired
                else "reserve phase refused",
            )
            return
        # Partition the residual slack equally among visited processors
        # and convert each share into a local utilization cap.
        k = len(plan.participants)
        slack_share = (1.0 - condition_sum) / k
        for node in plan.participants:
            post_u = votes[node].post_utilization
            cap = aub_term_inverse(aub_term(post_u) + max(0.0, slack_share))
            self._source.push(
                node,
                TOPIC_COMMIT,
                Outcome(
                    txn=txn,
                    job_key=job.key,
                    commit=True,
                    cap=cap,
                    expiry=job.absolute_deadline,
                ),
            )
        self.admitted_jobs += 1
        if self._m_decisions_accept is not None:
            self._m_decisions_accept.inc()
            self._m_decision_latency.observe(self.sim.now - job.arrival_time)
        release_node = plan.visits[0]
        self._source.push(
            release_node,
            TOPIC_ACCEPT,
            AcceptEvent(
                job=job,
                assignment=plan.assignment,
                arrival_node=transaction.event.arrival_node,
                release_node=release_node,
            ),
        )

    def _reject(self, event: TaskArriveEvent, reason: str) -> None:
        self.rejected_jobs += 1
        if self._m_decisions_reject is not None:
            self._m_decisions_reject.inc()
            self._m_decision_latency.observe(self.sim.now - event.job.arrival_time)
        self._source.push(
            event.arrival_node,
            TOPIC_REJECT,
            RejectEvent(
                job=event.job, arrival_node=event.arrival_node, reason=reason
            ),
        )

    # ------------------------------------------------------------------
    # Participant role
    # ------------------------------------------------------------------
    def _on_reserve(self, request: ReserveRequest) -> None:
        if self._crashed:
            return
        cost = self.env.cost_model.sample(OP_ADMISSION_TEST, self.env.cost_rng)
        self.processor.submit(
            self._thread, WorkItem(cost, self._vote_on, request)
        )

    def _vote_on(self, request: ReserveRequest) -> None:
        if self._crashed:
            # Crashed mid-admission-cost; the coordinator's timeout
            # (or our lock expiry, had we locked earlier) recovers.
            return
        recorded = self._granted_votes.get(request.txn)
        if recorded is not None:
            # Duplicate reserve: our granted vote was lost in flight.
            # Resend it verbatim — the lock is already held, so
            # re-evaluating would double-count the delta.
            self._source.push(request.coordinator, TOPIC_VOTE, recorded)
            return
        granted = self._locally_admissible(request.delta)
        if granted:
            self._locks[request.txn] = request.delta
            self._total += request.delta
            self._arm_lock_expiry(request.txn, request.expiry)
        vote = Vote(
            txn=request.txn,
            node=self.node,
            granted=granted,
            post_utilization=self.utilization if granted else 0.0,
        )
        if granted:
            self._granted_votes[request.txn] = vote
        self._source.push(request.coordinator, TOPIC_VOTE, vote)

    def _on_outcome(self, outcome: Outcome) -> None:
        if self._crashed:
            return
        self._granted_votes.pop(outcome.txn, None)
        locked = self._locks.pop(outcome.txn, None)
        if locked is None:
            return
        self._cancel_lock_expiry(outcome.txn)
        self._apply_outcome(outcome, locked)

    def _apply_outcome(self, outcome: Outcome, locked: float) -> None:
        if not outcome.commit:
            self._total -= locked
            if not self._locks and not self._contribs:
                self._total = 0.0
            return
        # The lock's share simply changes bucket (locked -> committed), so
        # the running total is unchanged.
        value = self._contribs.get(outcome.job_key, 0.0) + locked
        self._contribs[outcome.job_key] = value
        if self._shadow is not None:
            self._shadow.add(self.node, outcome.job_key, value)
        previous_cap = self._caps.get(outcome.job_key)
        cap = outcome.cap if previous_cap is None else min(previous_cap, outcome.cap)
        self._caps[outcome.job_key] = cap
        heapq.heappush(self._cap_heap, (cap, outcome.job_key))
        self.sim.schedule_at(
            max(self.sim.now, outcome.expiry), self._expire, outcome.job_key
        )

    def _expire(self, job_key: Tuple[str, int]) -> None:
        value = self._contribs.pop(job_key, None)
        if value is not None:
            if self._shadow is not None:
                self._shadow.remove(self.node, job_key)
            self._total -= value
            if not self._locks and not self._contribs:
                # Snap to exactly zero so float residue cannot accumulate
                # across commit/expire cycles (mirrors the central ledger).
                self._total = 0.0
        self._caps.pop(job_key, None)


class DistributedMiddlewareSystem(MiddlewareSystem):
    """A deployment using per-processor admission controllers.

    Reuses the :class:`~repro.core.middleware.MiddlewareSystem` substrate
    (processors, network, TEs, stage hosts) but replaces the
    central AC/LB pair with one distributed AC per application processor.
    Fixed configuration: AC per job, no idle resetting, no load balancing
    (see module docstring).
    """

    def __init__(self, workload, seed: int = 0, cost_model=None,
                 delay_model=None, aperiodic_interarrival_factor: float = 2.0,
                 metrics_registry=None):
        # Filled by _deploy, which the base constructor calls.
        self.acs: Dict[str, DistributedAdmissionControllerComponent] = {}
        super().__init__(
            workload,
            StrategyCombo.from_label("J_N_N"),
            cost_model=cost_model,
            seed=seed,
            delay_model=delay_model,
            aperiodic_interarrival_factor=aperiodic_interarrival_factor,
            metrics_registry=metrics_registry,
        )

    def _deploy(self) -> None:
        workload = self.workload
        env = self.env
        containers = self.containers
        # Task effectors pointed at their local controllers.
        for node in workload.app_nodes:
            te = TaskEffectorComponent(f"TE-{node}", env)
            te.set_configuration(
                {
                    "processor_id": node,
                    "release_mode": "per_job",
                    "ac_node": node,
                }
            )
            containers[node].install(te)
        for node in workload.app_nodes:
            ac = DistributedAdmissionControllerComponent(f"DAC-{node}", env)
            ac.set_configuration({"processor_id": node})
            containers[node].install(ac)
            self.acs[node] = ac
        # Home placement only (no LB in this extension).
        deploy_stages(env, containers, workload.tasks, replicas=False)

    # ------------------------------------------------------------------
    # Chaos hooks (see repro.net.fault and docs/CHAOS.md)
    # ------------------------------------------------------------------
    def crash_node(self, node: str) -> None:
        """Fail-silent crash of ``node``'s admission controller now."""
        self.acs[node].crash()

    def recover_node(self, node: str) -> None:
        """Re-admit ``node`` (empty ledger shard) after a crash."""
        self.acs[node].recover()

    def _prepare_run(self, horizon: float, drain: bool) -> float:
        """Arm the controllers' recovery machinery if the network carries
        an armed fault injector, and extend the drain to match."""
        injector = self.network.fault_injector
        chaos = injector is not None and injector.armed
        for ac in self.acs.values():
            ac.arm_recovery(chaos)
        end = super()._prepare_run(horizon, drain)
        if drain and chaos:
            # A transaction started just before the horizon can climb
            # the whole retry/backoff ladder before aborting; give
            # timed-out rounds room to resolve inside the drain so
            # every arrival still ends accepted or rejected.
            end += VOTE_TIMEOUT * (2.0 ** (MAX_RETRIES + 1))
        return end

    def _results(self, end: float, arrived: int):
        """The base run's totals with the distributed controllers' state
        summarized."""
        self.env.audit_rngs()
        if sanitize.enabled():
            for node in sorted(self.acs):
                self.acs[node].verify_ledger()
        injector = self.network.fault_injector
        if self.metrics_registry is not None:
            self._publish_coordination_metrics()
        return DistributedRunResults(
            duration=end,
            metrics=self.metrics,
            arrived_jobs=arrived,
            admitted_jobs=sum(ac.admitted_jobs for ac in self.acs.values()),
            rejected_jobs=sum(ac.rejected_jobs for ac in self.acs.values()),
            reserve_messages=sum(ac.reserve_messages for ac in self.acs.values()),
            coordination_rounds=sum(
                ac.coordination_rounds for ac in self.acs.values()
            ),
            messages_sent=self.network.messages_sent,
            final_utilization={n: ac.utilization for n, ac in self.acs.items()},
            messages_dropped=(
                injector.messages_dropped if injector is not None else 0
            ),
            messages_delay_spiked=(
                injector.messages_delay_spiked if injector is not None else 0
            ),
            vote_timeouts=sum(ac.vote_timeouts for ac in self.acs.values()),
            retries_sent=sum(ac.retries_sent for ac in self.acs.values()),
            transactions_aborted=sum(
                ac.aborted_transactions for ac in self.acs.values()
            ),
        )

    def _publish_coordination_metrics(self) -> None:
        """Aggregate coordination counters and final shard levels, one
        series per coordinator node.  Only reached when armed."""
        registry = self.metrics_registry
        counters = (
            ("repro_coordination_rounds_total",
             "Two-phase coordination rounds initiated.",
             lambda ac: ac.coordination_rounds),
            ("repro_reserve_messages_total",
             "Reserve requests sent (initial sends plus retries).",
             lambda ac: ac.reserve_messages),
            ("repro_vote_timeouts_total",
             "Coordination rounds that hit a vote timeout.",
             lambda ac: ac.vote_timeouts),
            ("repro_vote_retries_total",
             "Reserve retries sent after vote timeouts.",
             lambda ac: ac.retries_sent),
            ("repro_transactions_aborted_total",
             "Coordination rounds aborted after exhausting retries.",
             lambda ac: ac.aborted_transactions),
        )
        for name, help_text, getter in counters:
            family = registry.counter(name, help_text, ("node",))
            for node in sorted(self.acs):
                family.labels(node).inc(getter(self.acs[node]))
        shard = registry.gauge(
            "repro_ledger_shard_utilization",
            "Final synthetic utilization per ledger shard (node).",
            ("node",),
        )
        for node in sorted(self.acs):
            shard.labels(node).set(self.acs[node].utilization)


@dataclass
class DistributedRunResults:
    """Results of one distributed-AC run."""

    duration: float
    metrics: object
    arrived_jobs: int
    admitted_jobs: int
    rejected_jobs: int
    reserve_messages: int
    messages_sent: int
    final_utilization: Dict[str, float]
    #: Two-phase rounds initiated across all coordinators: one per job
    #: that reached coordination (retries reuse their job's round).
    coordination_rounds: int = 0
    #: Chaos layer: remote sends suppressed / delay-stretched by the
    #: fault injector (zero on fault-free runs).
    messages_dropped: int = 0
    messages_delay_spiked: int = 0
    #: Fault-tolerance activity: vote timeouts fired, reserve retries
    #: sent, and transactions aborted (timeout or coordinator crash).
    vote_timeouts: int = 0
    retries_sent: int = 0
    transactions_aborted: int = 0

    @property
    def accepted_utilization_ratio(self) -> float:
        return self.metrics.accepted_utilization_ratio

    @property
    def deadline_misses(self) -> int:
        return self.metrics.deadline_misses
