"""The test oracle of the processor model.

:class:`ReschedulingProcessor` is :class:`repro.cpu.processor.Processor`
as it was before :meth:`~repro.cpu.processor.Processor.submit` took its
fast paths: every submission makes the thread ready and rescans the
ready set, and a completion reschedules again after its callback.  The
property test in ``tests/test_cpu_processor.py`` asserts that both give
bit-identical completion order, completion times, idle transitions and
utilization.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, List, Optional

from repro.cpu.thread import DispatchThread, WorkItem
from repro.errors import SimulationError
from repro.sim.kernel import EventHandle, Simulator
from repro.sim.monitor import TimeWeightedStat

_COMPLETION_EVENT_PRIORITY = 50
_READY_ORDER = attrgetter("priority", "_ready_seq")


class ReschedulingProcessor:
    """The processor as it was before its submission fast paths: every
    submission and every completion callback ends in a full
    :meth:`_reschedule`."""

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
        """Enqueue ``item`` on ``thread`` and reschedule the CPU."""
        if thread.processor is not self:
            raise SimulationError(
                f"thread {thread.name} does not belong to processor {self.name}"
            )
        item.enqueued_at = self.sim.now
        queue = thread.queue
        was_busy = bool(queue)
        queue.append(item)
        if not was_busy and thread is not self._running:
            self._make_ready(thread)
        self._reschedule()

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
        # after callbacks may have submitted new work.
        self._reschedule()
        if item.on_complete is not None:
            item.on_complete(item.payload)
            # The callback may have submitted new work; pick it up.
            self._reschedule()
        if self._running is None and not self._ready:
            now = self.sim.now
            self._busy_stat.update(now, 0.0)
            for listener in self._idle_listeners:
                listener(now)
