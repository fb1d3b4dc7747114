"""Deterministic discrete-event simulation kernel.

The kernel is deliberately small: a binary heap of scheduled callbacks keyed
by ``(time, priority, sequence)``.  The sequence number makes event ordering
fully deterministic even when many events share a timestamp, which in turn
makes every experiment in :mod:`repro.experiments` reproducible from a seed.

An event's handle is its own heap entry, the plain list ``[time,
priority, seq, callback, args]``: scheduling builds one list display, and
the heap orders handles with C-level list comparison (the unique sequence
number means a callback is never compared).  :class:`EventHandle` holds
the operations on a handle as static functions: ``EventHandle.cancel(h)``
and ``EventHandle.cancelled(h)``.  The clock, :attr:`Simulator.now`, is a
plain attribute the dispatch loop writes.

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
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

#: One microsecond, in simulator time units (seconds).
USEC = 1e-6

#: One millisecond, in simulator time units (seconds).
MSEC = 1e-3

#: Default priority for scheduled events; lower values fire first among
#: events that share a timestamp.
DEFAULT_PRIORITY = 100


class EventHandle:
    """Operations on a scheduled event's handle.

    :meth:`Simulator.schedule`, :meth:`Simulator.schedule_at` and
    :meth:`Simulator.schedule_batch` return the event's heap entry
    itself, the plain list ``[time, priority, seq, callback, args]``.  A
    handle is therefore not hashable, and compares as a list.
    Cancellation is lazy: the callback slot is cleared and the entry is
    skipped when popped.
    """

    @staticmethod
    def cancel(handle: list) -> None:
        """Prevent the event from firing.  Idempotent."""
        handle[3] = None
        handle[4] = ()

    @staticmethod
    def cancelled(handle: list) -> bool:
        """Whether ``handle``'s event was cancelled."""
        return handle[3] is None


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
        #: Current virtual time in seconds.  Read-only by convention: only
        #: :meth:`run` writes it.
        self.now = 0.0
        #: Handles, ``[time, priority, seq, callback, args]``.
        self._heap: List[list] = []
        self._seq = itertools.count()
        self._running = False
        self._event_count = 0
        #: Open same-timestamp delivery batches:
        #: (time, priority, callback) -> (payload list, handle).
        self._batches: dict = {}

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
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
    ) -> list:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> list:
        """Schedule ``callback(*args)`` to fire at absolute virtual ``time``."""
        # One comparison rejects both the past and NaN (NaN compares false).
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r} (now={self.now!r})"
            )
        handle = [time, priority, next(self._seq), callback, args]
        _heappush(self._heap, handle)
        return handle

    def schedule_batch(
        self,
        time: float,
        callback: Callable[[List[Any]], None],
        payload: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> list:
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
        if entry is not None and entry[1][3] is not None:
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
                handle = _heappop(heap)
                callback = handle[3]
                if callback is None:  # cancelled
                    continue
                time = handle[0]
                if time > limit:
                    _heappush(heap, handle)
                    break
                self.now = time
                self._event_count += 1
                budget -= 1
                callback(*handle[4])
            if until is not None and until > self.now:
                while heap and heap[0][3] is None:
                    _heappop(heap)
                if not heap or heap[0][0] > until:
                    self.now = until
        finally:
            self._running = False

    def drain(self) -> None:
        """Discard all pending events without firing them."""
        self._heap.clear()
        self._batches.clear()
