"""Dispatch threads: prioritized work queues bound to a processor.

A :class:`DispatchThread` mirrors the dispatching thread inside each of the
paper's F/I Subtask and Last Subtask components: it executes work items
(subjob executions, service operations) at a fixed priority.  Lower
numerical priority values are *more* important; the End-to-end Deadline
Monotonic policy is obtained by using the task's end-to-end deadline as the
priority value.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.errors import SimulationError


class WorkItem:
    """A unit of CPU demand executed by a :class:`DispatchThread`.

    Attributes
    ----------
    cost:
        CPU seconds required to finish the item.
    on_complete:
        Callback invoked (with ``payload``) when the item finishes.
    payload:
        Opaque data passed through to ``on_complete``.
    remaining:
        CPU seconds still owed; decreases across preemptions.
    """

    __slots__ = ("cost", "on_complete", "payload", "remaining", "enqueued_at", "started_at")

    def __init__(
        self,
        cost: float,
        on_complete: Optional[Callable[[Any], None]] = None,
        payload: Any = None,
    ) -> None:
        if cost < 0:
            raise SimulationError(f"work item cost must be >= 0, got {cost}")
        self.cost = cost
        self.on_complete = on_complete
        self.payload = payload
        self.remaining = cost
        self.enqueued_at: Optional[float] = None
        self.started_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.on_complete, "__qualname__", "anon")
        return f"<WorkItem {name} cost={self.cost} remaining={self.remaining}>"


class DispatchThread:
    """A fixed-priority thread with a FIFO queue of :class:`WorkItem`.

    Threads are passive: all scheduling decisions are made by the owning
    :class:`~repro.cpu.processor.Processor`.
    """

    __slots__ = ("name", "priority", "queue", "processor", "_ready_seq")

    def __init__(self, name: str, priority: float) -> None:
        self.name = name
        self.priority = float(priority)
        self.queue: List[WorkItem] = []  # short: a deque would take 760 bytes
        self.processor = None  # set by Processor.add_thread
        #: Monotonic sequence assigned by the processor when the thread
        #: becomes ready; used as a FIFO tie-break between equal priorities.
        self._ready_seq = 0

    def head(self) -> WorkItem:
        if not self.queue:
            raise SimulationError(f"thread {self.name} has no work")
        return self.queue[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DispatchThread {self.name} prio={self.priority} depth={len(self.queue)}>"
