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
per admission.  The ablation benchmark quantifies both penalties against
the paper's centralized design.

Under arrival batching (``Scenario.arrival_batching``), a coordinator
drains its queued burst into one **piggybacked** round: a single
multi-reservation transaction whose participants vote on every
reservation of the burst against one local snapshot (per-item votes,
per-reservation locks/expiry/abort).  A burst then costs one two-phase
round instead of one per reservation, with decisions bit-identical to
the one-round-per-reservation path (property-tested).

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
    TOPIC_TASK_ARRIVE,
    TaskArriveEvent,
    accept_topic,
    reject_topic,
)
from repro.ccm.ports import EventSinkPort, EventSourcePort
from repro.core.cost_model import OP_ADMISSION_TEST
from repro.core.middleware import MiddlewareSystem
from repro.core.runtime import RuntimeEnv
from repro.core.strategies import StrategyCombo
from repro.core.subtask import FISubtaskComponent, LastSubtaskComponent
from repro.core.task_effector import TaskEffectorComponent
from repro.cpu.thread import WorkItem
from repro.errors import ComponentError
from repro.numeric import ordered_sum
from repro.sched.aub import EPSILON, aub_term, aub_term_inverse
from repro.sched.edms import edms_priority
from repro.sched.task import Job
from repro.sim.kernel import EventHandle

#: Topics of the two-phase coordination protocol.
TOPIC_RESERVE = "dac_reserve"
TOPIC_VOTE = "dac_vote"
TOPIC_COMMIT = "dac_commit"
TOPIC_ABORT = "dac_abort"
#: Piggybacked (multi-reservation) variants: one message per participant
#: per *round* instead of per reservation (arrival batching only).
TOPIC_RESERVE_BATCH = "dac_reserve_batch"
TOPIC_VOTE_BATCH = "dac_vote_batch"
TOPIC_COMMIT_BATCH = "dac_commit_batch"

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


class ReserveItem(NamedTuple):
    """One reservation inside a piggybacked multi-reservation round."""

    index: int
    job_key: Tuple[str, int]
    delta: float
    expiry: float


class BatchReserveRequest(NamedTuple):
    """Phase 1 of a piggybacked round: every reservation of the burst
    that involves this participant, in burst order."""

    txn: int
    coordinator: str
    items: Tuple[ReserveItem, ...]


class BatchVote(NamedTuple):
    """Participant reply: one grant (with post-lock utilization) per
    item, aligned with the request's ``items``."""

    txn: int
    node: str
    granted: Tuple[bool, ...]
    post_utilization: Tuple[float, ...]


class BatchOutcome(NamedTuple):
    """Phase 2 of a piggybacked round: per-reservation commit/abort
    outcomes for this participant, aligned with its request ``items``."""

    txn: int
    items: Tuple[Outcome, ...]


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


class _BatchItem(NamedTuple):
    """One burst arrival inside a coordinator's piggybacked round."""

    job: Job
    event: TaskArriveEvent
    plan: _HomePlan


@dataclass
class _BatchTransaction:
    """Coordinator-side state of one in-flight piggybacked round."""

    items: List[_BatchItem]
    participants: List[str]
    #: participant -> the burst indices sent to it, in burst order.
    sent: Dict[str, List[int]]
    votes: Dict[str, BatchVote] = field(default_factory=dict)
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
        "batching": AttributeSpec(
            bool,
            default=False,
            doc="Drain queued simultaneous arrivals in one dispatch pass "
            "and piggyback them onto a single multi-reservation "
            "coordination round: participants vote on the whole burst "
            "against one local snapshot (per-item votes, per-reservation "
            "expiry/abort), so a burst costs one two-phase round instead "
            "of one per reservation.",
        ),
        "vote_timeout": AttributeSpec(
            float,
            default=0.25,
            doc="Seconds a coordinator waits for the round's votes before "
            "retrying the missing participants (exponential backoff) and "
            "ultimately aborting.  Timeouts are armed only while the "
            "network carries an armed fault injector — on fault-free "
            "runs every vote arrives and the protocol is byte-for-byte "
            "the original.  <= 0 disables timeouts even under faults.",
        ),
        "max_retries": AttributeSpec(
            int,
            default=2,
            doc="Reserve retries per transaction after the first vote "
            "timeout; the round aborts (releasing every granted "
            "reservation) when they are exhausted.",
        ),
    }

    _txn_counter = itertools.count(1)

    def __init__(self, name: str, env: RuntimeEnv) -> None:
        super().__init__(name)
        self.env = env
        #: Arrivals awaiting a batched coordination pass (batching only).
        self._arrival_queue: List[TaskArriveEvent] = []
        #: Live local contributions: job key -> utilization on this node.
        self._contribs: Dict[Tuple[str, int], float] = {}
        #: Pending phase-1 locks: txn (scalar rounds) or (txn, job key)
        #: (piggybacked rounds) -> locked utilization.
        self._locks: Dict[object, float] = {}
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
        self._batch_transactions: Dict[int, _BatchTransaction] = {}
        self._source: Optional[EventSourcePort] = None
        self._thread = None
        self.admitted_jobs = 0
        self.rejected_jobs = 0
        self.reserve_messages = 0
        #: Two-phase rounds initiated: one per transaction on the scalar
        #: path, one per drained burst on the piggybacked path.
        self.coordination_rounds = 0
        self.batch_calls = 0
        self.batched_arrivals = 0
        # -- fault tolerance (active only under an armed fault injector) --
        #: Recorded granted votes per txn, resent verbatim on duplicate
        #: reserves so a retry after a lost vote never double-locks.
        self._granted_votes: Dict[int, object] = {}
        #: Expiry-backstop event handles for phase-1 locks, keyed like
        #: ``_locks``; cancelled when the round's outcome arrives.
        self._lock_expiry: Dict[object, object] = {}
        #: Fail-silent crash flag (see :meth:`crash`/:meth:`recover`).
        self._crashed = False
        self.vote_timeouts = 0
        self.retries_sent = 0
        self.aborted_transactions = 0
        self.crash_count = 0
        self.recovery_count = 0
        # Re-read from attributes at activation.
        self._vote_timeout = 0.25
        self._max_retries = 2
        self._batching = False
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
        EventSinkPort(self, "reserve_batch", self._on_batch_reserve).subscribe(
            TOPIC_RESERVE_BATCH
        )
        EventSinkPort(self, "vote_batch", self._on_batch_vote).subscribe(
            TOPIC_VOTE_BATCH
        )
        EventSinkPort(self, "outcome_batch", self._on_batch_outcome).subscribe(
            TOPIC_COMMIT_BATCH
        )

    def on_activate(self) -> None:
        if self.get_attribute("processor_id") != self.node:
            raise ComponentError(
                f"distributed AC {self.name!r}: processor_id mismatch"
            )
        self._thread = self.processor.new_thread(f"{self.name}.dispatch", 0.0)
        self._vote_timeout = float(self.get_attribute("vote_timeout"))
        self._max_retries = int(self.get_attribute("max_retries"))
        self._batching = self.get_attribute("batching")
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
        injector) and vote timeouts are enabled.

        On a fault-free network every vote and outcome arrives, so the
        recovery machinery would only schedule events it always cancels.
        The injector's window set is fixed before the run starts, so
        :class:`DistributedMiddlewareSystem` works ``chaos`` out once per
        run and hands it to every controller; both modes are deterministic.
        """
        self._chaos = chaos and self._vote_timeout > 0

    @property
    def crashed(self) -> bool:
        return self._crashed

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
        self.crash_count += 1
        for txn in sorted(self._transactions):
            transaction = self._transactions[txn]
            self._cancel_vote_timeout(transaction)
            self.aborted_transactions += 1
            self._reject(transaction.event, "coordinator crashed")
        self._transactions.clear()
        for txn in sorted(self._batch_transactions):
            transaction = self._batch_transactions[txn]
            self._cancel_vote_timeout(transaction)
            self.aborted_transactions += 1
            for item in transaction.items:
                self._reject(item.event, "coordinator crashed")
        self._batch_transactions.clear()
        for event in self._arrival_queue:
            self._reject(event, "node crashed")
        self._arrival_queue = []
        for key in list(self._lock_expiry):
            self._cancel_lock_expiry(key)
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
        if not self._crashed:
            return
        self._crashed = False
        self.recovery_count += 1

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

    def _arm_vote_timeout(self, txn: int, attempt: int, batch: bool):
        """Schedule the vote-timeout event for one round (chaos only)."""
        if not self._chaos:
            return None
        callback = self._on_batch_vote_timeout if batch else self._on_vote_timeout
        return self.sim.schedule(
            self._vote_timeout * (2.0 ** attempt), callback, txn
        )

    @staticmethod
    def _cancel_vote_timeout(transaction) -> None:
        if transaction.timeout_handle is not None:
            EventHandle.cancel(transaction.timeout_handle)
            transaction.timeout_handle = None

    def _arm_lock_expiry(self, key: object, expiry: float) -> None:
        """Backstop: free an orphaned phase-1 lock at its job's deadline.

        Armed only under chaos; cancelled when the round's outcome
        arrives.  If the coordinator crashed (or its abort was lost),
        the lock — and the vote recorded for resends — are released
        here, so no reservation outlives the job it was for.
        """
        if not self._chaos:
            return
        self._lock_expiry[key] = self.sim.schedule_at(
            max(self.sim.now, expiry), self._expire_lock, key
        )

    def _cancel_lock_expiry(self, key: object) -> None:
        handle = self._lock_expiry.pop(key, None)
        if handle is not None:
            EventHandle.cancel(handle)

    def _expire_lock(self, key: object) -> None:
        self._lock_expiry.pop(key, None)
        locked = self._locks.pop(key, None)
        if locked is None:
            return
        self._total -= locked
        if not self._locks and not self._contribs:
            self._total = 0.0
        # The recorded vote claims this lock; a later duplicate reserve
        # must re-evaluate instead of resending it.
        txn = key[0] if isinstance(key, tuple) else key
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
        if self._batching:
            # Queue the arrival; the first work item to complete drains
            # every queued arrival in one pass (each still pays its own
            # sampled admission cost on the dispatch thread).
            self._arrival_queue.append(event)
            self.processor.submit(
                self._thread, WorkItem(cost, self._drain_arrivals)
            )
            return
        self.processor.submit(
            self._thread, WorkItem(cost, self._coordinate, event)
        )

    def _drain_arrivals(self, _payload=None) -> None:
        """Pack the queued burst into one piggybacked coordination round.

        One multi-reservation transaction replaces one two-phase round
        per reservation: each participant receives a single
        :class:`BatchReserveRequest` carrying every reservation of the
        burst that involves it (in burst order) and votes on the batch
        against one local snapshot.  Per-reservation semantics —
        expiry, abort, caps — are unchanged; decisions are bit-identical
        to running one round per reservation, because the sequential
        rounds' reserve requests all land before any outcome returns (so
        each vote already sees the locks of the reservations ahead of
        it, exactly as the packed vote loop does).
        """
        events = self._arrival_queue
        if not events or self._crashed:
            # crash() already rejected and flushed the queue.
            return
        self._arrival_queue = []
        self.batch_calls += 1
        self.batched_arrivals += len(events)
        now = self.sim.now
        items: List[_BatchItem] = []
        for event in events:
            job = event.job
            if job.absolute_deadline <= now:
                self._reject(event, "deadline expired before admission")
                continue
            items.append(_BatchItem(job, event, self._home_plan(job.task)))
        if not items:
            return
        txn = next(self._txn_counter)
        sent: Dict[str, List[int]] = {}
        for index, item in enumerate(items):
            for node in item.plan.participants:
                sent.setdefault(node, []).append(index)
        participants = sorted(sent)
        transaction = _BatchTransaction(
            items=items, participants=participants, sent=sent, started=now
        )
        self._batch_transactions[txn] = transaction
        self.coordination_rounds += 1
        # Armed before the reserves go out: local participants vote
        # synchronously during the push loop and may complete (and
        # cancel) the round before the loop ends.
        transaction.timeout_handle = self._arm_vote_timeout(txn, 0, batch=True)
        for node in participants:
            request = BatchReserveRequest(
                txn=txn,
                coordinator=self.node,
                items=tuple(
                    ReserveItem(
                        index=i,
                        job_key=items[i].job.key,
                        delta=items[i].plan.deltas[node],
                        expiry=items[i].job.absolute_deadline,
                    )
                    for i in sent[node]
                ),
            )
            self.reserve_messages += 1
            self._source.push(node, TOPIC_RESERVE_BATCH, request)

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
        # Armed before the reserves go out (see _drain_arrivals).
        transaction.timeout_handle = self._arm_vote_timeout(txn, 0, batch=False)
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
        """The scalar round ``txn`` is missing votes past the deadline."""
        transaction = self._transactions.get(txn)
        if transaction is None:
            return
        self.vote_timeouts += 1
        transaction.timeout_handle = None
        if transaction.attempt < self._max_retries:
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
                txn, transaction.attempt, batch=False
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
            accept_topic(release_node),
            AcceptEvent(
                job=job,
                assignment=plan.assignment,
                arrival_node=transaction.event.arrival_node,
                release_node=release_node,
            ),
        )

    def _on_batch_vote(self, vote: BatchVote) -> None:
        if self._crashed:
            return
        transaction = self._batch_transactions.get(vote.txn)
        if transaction is None:
            return
        transaction.votes[vote.node] = vote
        if len(transaction.votes) < len(transaction.participants):
            return
        self._cancel_vote_timeout(transaction)
        del self._batch_transactions[vote.txn]
        self._finish_batch_transaction(vote.txn, transaction)

    def _on_batch_vote_timeout(self, txn: int) -> None:
        """The piggybacked round ``txn`` is missing votes past the
        deadline; same retry/abort ladder as the scalar rounds."""
        transaction = self._batch_transactions.get(txn)
        if transaction is None:
            return
        self.vote_timeouts += 1
        transaction.timeout_handle = None
        if transaction.attempt < self._max_retries:
            transaction.attempt += 1
            items = transaction.items
            for node in transaction.participants:
                if node in transaction.votes:
                    continue
                self.retries_sent += 1
                self.reserve_messages += 1
                self._source.push(
                    node,
                    TOPIC_RESERVE_BATCH,
                    BatchReserveRequest(
                        txn=txn,
                        coordinator=self.node,
                        items=tuple(
                            ReserveItem(
                                index=i,
                                job_key=items[i].job.key,
                                delta=items[i].plan.deltas[node],
                                expiry=items[i].job.absolute_deadline,
                            )
                            for i in transaction.sent[node]
                        ),
                    ),
                )
            transaction.timeout_handle = self._arm_vote_timeout(
                txn, transaction.attempt, batch=True
            )
            return
        del self._batch_transactions[txn]
        self.aborted_transactions += 1
        for node in transaction.participants:
            self._source.push(
                node,
                TOPIC_COMMIT_BATCH,
                BatchOutcome(
                    txn=txn,
                    items=tuple(
                        Outcome(
                            txn=txn,
                            job_key=transaction.items[i].job.key,
                            commit=False,
                        )
                        for i in transaction.sent[node]
                    ),
                ),
            )
        for item in transaction.items:
            self._reject(item.event, "coordination timed out")

    def _finish_batch_transaction(
        self, txn: int, transaction: _BatchTransaction
    ) -> None:
        """Decide every reservation of the round in burst order; the math
        per item is the scalar :meth:`_finish_transaction` verbatim."""
        if self._m_round_trip is not None:
            self._m_round_trip.observe(self.sim.now - transaction.started)
        n_items = len(transaction.items)
        # Re-key the per-participant vote vectors by burst index.
        grants: List[Dict[str, bool]] = [{} for _ in range(n_items)]
        posts: List[Dict[str, float]] = [{} for _ in range(n_items)]
        for node, vote in transaction.votes.items():
            for pos, index in enumerate(transaction.sent[node]):
                grants[index][node] = vote.granted[pos]
                posts[index][node] = vote.post_utilization[pos]
        outcomes: Dict[str, List[Outcome]] = {
            node: [] for node in transaction.participants
        }
        # See _finish_transaction: retried rounds can outlast deadlines.
        check_expiry = transaction.attempt > 0 or self._chaos
        for index, item in enumerate(transaction.items):
            job = item.job
            plan = item.plan
            all_granted = all(
                grants[index].get(node, False) for node in plan.participants
            )
            expired = check_expiry and job.absolute_deadline <= self.sim.now
            condition_sum = 0.0
            if all_granted and not expired:
                post = posts[index]
                condition_sum = ordered_sum(
                    aub_term(post[node]) for node in plan.visits
                )
                all_granted = condition_sum <= 1.0 + EPSILON
            if not all_granted or expired:
                for node in plan.participants:
                    outcomes[node].append(
                        Outcome(txn=txn, job_key=job.key, commit=False)
                    )
                self._reject(
                    item.event,
                    "deadline expired during coordination"
                    if expired
                    else "reserve phase refused",
                )
                continue
            # Partition the residual slack equally among visited
            # processors, exactly as the scalar round does.
            k = len(plan.participants)
            slack_share = (1.0 - condition_sum) / k
            for node in plan.participants:
                post_u = posts[index][node]
                cap = aub_term_inverse(aub_term(post_u) + max(0.0, slack_share))
                outcomes[node].append(
                    Outcome(
                        txn=txn,
                        job_key=job.key,
                        commit=True,
                        cap=cap,
                        expiry=job.absolute_deadline,
                    )
                )
            self.admitted_jobs += 1
            if self._m_decisions_accept is not None:
                self._m_decisions_accept.inc()
                self._m_decision_latency.observe(self.sim.now - job.arrival_time)
            release_node = plan.visits[0]
            self._source.push(
                release_node,
                accept_topic(release_node),
                AcceptEvent(
                    job=job,
                    assignment=plan.assignment,
                    arrival_node=item.event.arrival_node,
                    release_node=release_node,
                ),
            )
        for node in transaction.participants:
            self._source.push(
                node,
                TOPIC_COMMIT_BATCH,
                BatchOutcome(txn=txn, items=tuple(outcomes[node])),
            )

    def _reject(self, event: TaskArriveEvent, reason: str) -> None:
        self.rejected_jobs += 1
        if self._m_decisions_reject is not None:
            self._m_decisions_reject.inc()
            self._m_decision_latency.observe(self.sim.now - event.job.arrival_time)
        self._source.push(
            event.arrival_node,
            reject_topic(event.arrival_node),
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

    def _on_batch_reserve(self, request: BatchReserveRequest) -> None:
        if self._crashed:
            return
        # One admission-test cost per reservation, as the scalar rounds
        # charge — piggybacking saves messages, not admission math.
        cost = ordered_sum(
            self.env.cost_model.sample(OP_ADMISSION_TEST, self.env.cost_rng)
            for _ in request.items
        )
        self.processor.submit(
            self._thread, WorkItem(cost, self._vote_on_batch, request)
        )

    def _vote_on_batch(self, request: BatchReserveRequest) -> None:
        """Per-item votes against one local snapshot: each granted item's
        lock is visible to the items after it, exactly as the sequential
        one-round-per-reservation path (whose reserve requests all land
        before any outcome returns) evaluates them."""
        if self._crashed:
            return
        recorded = self._granted_votes.get(request.txn)
        if recorded is not None:
            # Duplicate reserve after a lost vote: resend verbatim (the
            # granted items' locks are already held).
            self._source.push(request.coordinator, TOPIC_VOTE_BATCH, recorded)
            return
        granted: List[bool] = []
        post: List[float] = []
        for item in request.items:
            key = (request.txn, item.job_key)
            if key in self._locks:
                # Held from an earlier attempt whose recorded vote was
                # dropped when a sibling item's lock expired: grant
                # without re-locking.
                granted.append(True)
                post.append(self.utilization)
                continue
            ok = self._locally_admissible(item.delta)
            if ok:
                self._locks[key] = item.delta
                self._total += item.delta
                self._arm_lock_expiry(key, item.expiry)
            granted.append(ok)
            post.append(self.utilization if ok else 0.0)
        vote = BatchVote(
            txn=request.txn,
            node=self.node,
            granted=tuple(granted),
            post_utilization=tuple(post),
        )
        if any(granted):
            self._granted_votes[request.txn] = vote
        self._source.push(request.coordinator, TOPIC_VOTE_BATCH, vote)

    def _on_outcome(self, outcome: Outcome) -> None:
        if self._crashed:
            return
        self._granted_votes.pop(outcome.txn, None)
        locked = self._locks.pop(outcome.txn, None)
        if locked is None:
            return
        self._cancel_lock_expiry(outcome.txn)
        self._apply_outcome(outcome, locked)

    def _on_batch_outcome(self, batch: BatchOutcome) -> None:
        if self._crashed:
            return
        self._granted_votes.pop(batch.txn, None)
        for outcome in batch.items:
            key = (batch.txn, outcome.job_key)
            locked = self._locks.pop(key, None)
            if locked is None:
                continue
            self._cancel_lock_expiry(key)
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
    (processors, network, TEs, subtask components) but replaces the
    central AC/LB pair with one distributed AC per application processor.
    Fixed configuration: AC per job, no idle resetting, no load balancing
    (see module docstring).
    """

    def __init__(self, workload, seed: int = 0, cost_model=None,
                 delay_model=None, aperiodic_interarrival_factor: float = 2.0,
                 arrival_batching: bool = False, vote_timeout: float = 0.25,
                 max_retries: int = 2, metrics_registry=None):
        # Read by _deploy, which the base constructor calls.  Arrivals
        # reach the task effectors one kernel event each (the base's
        # arrival_batching stays off); a controller batches its own queue.
        self._dac_batching = arrival_batching
        self._vote_timeout = vote_timeout
        self._max_retries = max_retries
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
            ac.set_configuration(
                {
                    "processor_id": node,
                    "batching": self._dac_batching,
                    "vote_timeout": self._vote_timeout,
                    "max_retries": self._max_retries,
                }
            )
            containers[node].install(ac)
            self.acs[node] = ac
        for task in workload.tasks:
            priority = edms_priority(task)
            last_index = task.n_subtasks - 1
            for subtask in task.subtasks:
                cls = (
                    LastSubtaskComponent
                    if subtask.index == last_index
                    else FISubtaskComponent
                )
                # Home placement only (no LB in this extension).
                component = cls(f"{task.task_id}.s{subtask.index}@{subtask.home}", env)
                component.set_configuration(
                    {
                        "task_id": task.task_id,
                        "subtask_index": subtask.index,
                        "execution_time": subtask.execution_time,
                        "priority": priority,
                        "ir_mode": "N",
                    }
                )
                containers[subtask.home].install(component)

    # ------------------------------------------------------------------
    # Chaos hooks (see repro.net.fault and docs/CHAOS.md)
    # ------------------------------------------------------------------
    def install_fault_injector(self, injector) -> None:
        """Install the fault injector consulted on every remote send."""
        self.network.install_fault_injector(injector)

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
        if drain and chaos and self._vote_timeout > 0:
            # A transaction started just before the horizon can climb
            # the whole retry/backoff ladder before aborting; give
            # timed-out rounds room to resolve inside the drain so
            # every arrival still ends accepted or rejected.
            end += self._vote_timeout * (2.0 ** (self._max_retries + 1))
        return end

    def _results(self, end: float, arrived: int):
        """The base run's totals with the distributed controllers' state
        summarized."""
        self.env.audit_rngs()
        if sanitize.enabled():
            for node in sorted(self.acs):
                self.acs[node].verify_ledger()
        injector = self.network.fault_injector
        fault_metrics = injector.metrics if injector is not None else None
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
                fault_metrics.messages_dropped if fault_metrics else 0
            ),
            messages_delay_spiked=(
                fault_metrics.messages_delay_spiked if fault_metrics else 0
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
    #: Two-phase rounds initiated across all coordinators (piggybacked
    #: rounds count once per burst, not once per reservation).
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
        return self.metrics.latency.deadline_misses
