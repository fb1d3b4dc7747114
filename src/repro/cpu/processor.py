"""Preemptive fixed-priority processor model.

The processor dispatches the highest-priority ready thread (lowest
numerical priority value).  A running work item is preempted whenever a
higher-priority thread becomes ready; its remaining cost is tracked across
preemptions, giving the standard preemptive fixed-priority semantics that
the AUB/EDMS analysis in :mod:`repro.sched.aub` assumes.

Idle transitions (busy -> no ready work) invoke registered idle listeners.
The Idle Resetting service does not use those listeners for its reports —
it queues report work on a lowest-priority thread instead — but tests and
metrics use them to observe idle periods.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, List, Optional

from repro.cpu.thread import DispatchThread, WorkItem
from repro.errors import SimulationError
from repro.sim.kernel import EventHandle, Simulator
from repro.sim.monitor import TimeWeightedStat

#: Event priority for work-completion events: fire before same-time
#: arrivals so completions release resources promptly and deterministically.
_COMPLETION_EVENT_PRIORITY = 50

#: Ready-set order: most urgent priority first, then first made ready.
_READY_ORDER = attrgetter("priority", "_ready_seq")


class Processor:
    """A single simulated CPU with preemptive fixed-priority dispatching."""

    def __init__(self, sim: Simulator, name: str, speed: float = 1.0) -> None:
        if speed <= 0:
            raise SimulationError(f"processor speed must be positive, got {speed}")
        self.sim = sim
        self.name = name
        #: Relative speed; a work item of cost c takes c / speed seconds.
        self.speed = speed
        self._ready: List[DispatchThread] = []
        self._ready_counter = 0
        self._running: Optional[DispatchThread] = None
        self._segment_start = 0.0
        #: Handle of the running item's completion event.
        self._completion: Optional[list] = None
        self._idle_listeners: List[Callable[[float], None]] = []
        self._busy_stat = TimeWeightedStat(start=sim.now, initial=0.0)
        self.items_completed = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_thread(self, thread: DispatchThread) -> DispatchThread:
        """Register a dispatch thread on this processor."""
        if thread.processor is not None:
            raise SimulationError(
                f"thread {thread.name} already bound to {thread.processor.name}"
            )
        thread.processor = self
        return thread

    def new_thread(self, name: str, priority: float) -> DispatchThread:
        """Create and register a new dispatch thread."""
        return self.add_thread(DispatchThread(name, priority))

    def on_idle(self, listener: Callable[[float], None]) -> None:
        """Register ``listener(now)`` invoked at busy->idle transitions."""
        self._idle_listeners.append(listener)

    def set_speed(self, speed: float) -> None:
        """Change the CPU's relative speed at runtime (fault injection:
        thermal throttling, contention from an unmodeled co-tenant).

        A running work item is re-timed: CPU already consumed is credited
        at the old speed, the remainder is rescheduled at the new speed.
        """
        if speed <= 0:
            raise SimulationError(f"processor speed must be positive, got {speed}")
        if self._running is not None:
            thread = self._running
            assert self._completion is not None
            EventHandle.cancel(self._completion)
            consumed = (self.sim.now - self._segment_start) * self.speed
            item = thread.head()
            item.remaining = max(0.0, item.remaining - consumed)
            self.speed = speed
            self._segment_start = self.sim.now
            duration = item.remaining / self.speed
            self._completion = self.sim.schedule(
                duration,
                self._complete,
                thread,
                priority=_COMPLETION_EVENT_PRIORITY,
            )
        else:
            self.speed = speed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running(self) -> Optional[DispatchThread]:
        return self._running

    @property
    def idle(self) -> bool:
        """True when no thread is running or ready."""
        return self._running is None and not self._ready

    def utilization(self, until: Optional[float] = None) -> float:
        """Fraction of time the CPU has been busy."""
        return self._busy_stat.average(until if until is not None else self.sim.now)

    # ------------------------------------------------------------------
    # Work submission
    # ------------------------------------------------------------------
    def submit(self, thread: DispatchThread, item: WorkItem) -> None:
        """Enqueue ``item`` on ``thread`` and dispatch it if it should run.

        Between calls no ready thread is more urgent than the running
        one, so only a submission that may preempt scans the ready set:
        a thread that already had work is running or ready, a thread on
        an idle CPU starts at once, and one that cannot preempt (priority
        at or above the running thread's) just joins the ready set.
        """
        if thread.processor is not self:
            raise SimulationError(
                f"thread {thread.name} does not belong to processor {self.name}"
            )
        item.enqueued_at = self.sim.now
        queue = thread.queue
        queue.append(item)
        if len(queue) > 1:
            return
        running = self._running
        if running is None and not self._ready:
            self._start(thread)
        else:
            self._make_ready(thread)
            if running is None or thread.priority < running.priority:
                self._reschedule()

    def discard_work(self) -> None:
        """Drop every queued work item unrun and leave no thread running
        or ready: the end of a run whose kernel was drained.

        Only the running and the ready threads hold work, so this costs
        their number, not the processor's thread count.  Counters and
        the busy statistic are left as they are.
        """
        running = self._running
        if running is not None:
            running.queue.clear()
        for thread in self._ready:
            thread.queue.clear()
        self._running = None
        self._ready.clear()
        self._completion = None

    # ------------------------------------------------------------------
    # Internal scheduling machinery
    # ------------------------------------------------------------------
    def _make_ready(self, thread: DispatchThread) -> None:
        self._ready_counter += 1
        thread._ready_seq = self._ready_counter
        self._ready.append(thread)

    def _reschedule(self) -> None:
        """Ensure the highest-priority ready/running thread holds the CPU."""
        ready = self._ready
        if not ready:
            return
        challenger = min(ready, key=_READY_ORDER)
        running = self._running
        if running is None:
            ready.remove(challenger)
            self._start(challenger)
        elif challenger.priority < running.priority:
            self._preempt()
            ready.remove(challenger)
            self._start(challenger)

    def _start(self, thread: DispatchThread) -> None:
        item = thread.queue[0]
        now = self.sim.now
        if item.started_at is None:
            item.started_at = now
        self._running = thread
        self._segment_start = now
        self._busy_stat.update(now, 1.0)
        self._completion = self.sim.schedule_at(
            now + item.remaining / self.speed,
            self._complete,
            thread,
            priority=_COMPLETION_EVENT_PRIORITY,
        )

    def _preempt(self) -> None:
        """Stop the running thread, crediting the CPU time it consumed."""
        thread = self._running
        assert thread is not None
        assert self._completion is not None
        EventHandle.cancel(self._completion)
        self._completion = None
        consumed = (self.sim.now - self._segment_start) * self.speed
        item = thread.head()
        item.remaining = max(0.0, item.remaining - consumed)
        self._running = None
        self._make_ready(thread)

    def _complete(self, thread: DispatchThread) -> None:
        if thread is not self._running:  # pragma: no cover - defensive
            raise SimulationError("completion fired for non-running thread")
        item = thread.queue.pop(0)
        item.remaining = 0.0
        self._running = None
        self._completion = None
        self.items_completed += 1
        if thread.queue:
            self._make_ready(thread)
        # Dispatch the next thread *before* running the completion callback
        # so callbacks observe a consistent CPU state; but record idleness
        # after callbacks may have submitted new work (``submit``
        # dispatches what it enqueues).
        self._reschedule()
        if item.on_complete is not None:
            item.on_complete(item.payload)
        if self._running is None and not self._ready:
            now = self.sim.now
            self._busy_stat.update(now, 0.0)
            for listener in self._idle_listeners:
                listener(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "idle" if self.idle else f"running={self._running}"
        return f"<Processor {self.name} {state}>"
