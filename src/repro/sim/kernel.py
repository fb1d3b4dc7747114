"""Deterministic discrete-event simulation kernel.

The kernel is deliberately small: a binary heap of scheduled callbacks keyed
by ``(time, priority, sequence)``.  The sequence number makes event ordering
fully deterministic even when many events share a timestamp, which in turn
makes every experiment in :mod:`repro.experiments` reproducible from a seed.

Heap entries are plain ``(time, priority, seq, handle)`` tuples: the sort
key is precomputed once at scheduling time and compared with C-level tuple
comparison (the unique sequence number guarantees the handle itself is
never compared), instead of dispatching a Python ``__lt__`` per sift step.

:meth:`Simulator.schedule_batch` coalesces same-timestamp deliveries to
one subscriber: every payload scheduled for the same ``(time, priority,
callback)`` before the moment fires is delivered in a single
``callback(payloads)`` call, in scheduling order — one heap entry and one
dispatch per batch instead of one per payload.  Burst arrivals use this
so a wave of simultaneous arrivals reaches the admission layer as one
batch.

Time is a ``float`` measured in **seconds** of virtual time.  The paper's
overheads are microsecond-scale, so helper constants :data:`USEC` and
:data:`MSEC` are provided for readability.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: One microsecond, in simulator time units (seconds).
USEC = 1e-6

#: One millisecond, in simulator time units (seconds).
MSEC = 1e-3

#: Default priority for scheduled events; lower values fire first among
#: events that share a timestamp.
DEFAULT_PRIORITY = 100


class EventHandle:
    """A cancellable handle for a scheduled simulator event.

    Handles are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`.  Cancellation is lazy: the heap entry is
    marked dead and skipped when popped.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "_cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._cancelled = True
        self.callback = _noop
        self.args = ()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"<EventHandle t={self.time:.9f} prio={self.priority} {state}>"


#: A heap entry: the precomputed sort key plus the handle payload.
_HeapEntry = Tuple[float, int, int, EventHandle]


def _noop(*_args: Any) -> None:
    return None


class Simulator:
    """The discrete-event simulation engine.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[_HeapEntry] = []
        self._seq = itertools.count()
        self._running = False
        self._event_count = 0
        #: Open same-timestamp delivery batches:
        #: (time, priority, callback) -> (payload list, handle).
        self._batches: dict = {}

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events dispatched so far."""
        return self._event_count

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled entries)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire at absolute virtual ``time``."""
        # One comparison rejects both the past and NaN (NaN compares false).
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} (now={self._now!r})"
            )
        seq = next(self._seq)
        handle = EventHandle(time, priority, seq, callback, args)
        _heappush(self._heap, (time, priority, seq, handle))
        return handle

    def schedule_batch(
        self,
        time: float,
        callback: Callable[[List[Any]], None],
        payload: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> EventHandle:
        """Enqueue ``payload`` for batched delivery to ``callback`` at
        absolute ``time``.

        All payloads scheduled for the same ``(time, priority, callback)``
        before the batch fires are delivered in one ``callback(payloads)``
        call, ordered as scheduled.  The returned handle is shared by the
        whole batch: cancelling it drops every payload.  The batch's heap
        position is that of its *first* payload, so relative ordering with
        other same-timestamp events is unchanged.
        """
        key = (time, priority, callback)
        entry = self._batches.get(key)
        if entry is not None and not entry[1]._cancelled:
            entry[0].append(payload)
            return entry[1]
        payloads = [payload]
        handle = self.schedule_at(
            time, self._dispatch_batch, key, payloads, priority=priority
        )
        self._batches[key] = (payloads, handle)
        return handle

    def _dispatch_batch(self, key, payloads: List[Any]) -> None:
        # Remove the open batch first: a payload scheduled from inside the
        # callback for the same key starts a fresh batch at t == now.
        self._batches.pop(key, None)
        key[2](payloads)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the single next event.

        Returns ``True`` if an event fired, ``False`` if the queue is empty.
        Like :meth:`run`, it may not be called from inside a callback.
        """
        before = self._event_count
        self.run(max_events=1)
        return self._event_count != before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been dispatched.

        When ``until`` is given, the clock is advanced to exactly ``until``
        at the end of the run even if the last event fired earlier, so
        time-weighted statistics close their final interval consistently
        — unless the run stopped on ``max_events`` with a live event still
        due by ``until``: the clock never passes a pending event.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events}")
        self._running = True
        heap = self._heap
        limit = math.inf if until is None else until
        # Counts down to 0; from -1 (no limit) it never gets there.
        budget = -1 if max_events is None else max_events
        try:
            while budget and heap:
                entry = heap[0]
                handle = entry[3]
                if handle._cancelled:
                    _heappop(heap)
                    continue
                time = entry[0]
                if time > limit:
                    break
                _heappop(heap)
                self._now = time
                self._event_count += 1
                budget -= 1
                handle.callback(*handle.args)
            if until is not None and until > self._now:
                while heap and heap[0][3]._cancelled:
                    _heappop(heap)
                if not heap or heap[0][0] > until:
                    self._now = until
        finally:
            self._running = False

    def drain(self) -> None:
        """Discard all pending events without firing them."""
        self._heap.clear()
        self._batches.clear()
