"""Counters for injected network faults.

One :class:`FaultMetrics` instance rides on each
:class:`~repro.net.fault.FaultInjector` and records what the chaos layer
actually did to the run: messages dropped and deliveries whose delay
was stretched by an active spike window.  The experiment layer
surfaces the totals on run results so availability-under-failure grids
can correlate outcome degradation with injected fault volume.
"""

from __future__ import annotations


class FaultMetrics:
    """Mutable fault counters (one per network / fault injector)."""

    def __init__(self) -> None:
        #: Remote sends the injector suppressed (crash, partition or loss).
        self.messages_dropped = 0
        #: Remote deliveries whose sampled delay an active spike scaled.
        self.messages_delay_spiked = 0

    def record_drop(self) -> None:
        self.messages_dropped += 1

    def record_spike(self) -> None:
        self.messages_delay_spiked += 1
