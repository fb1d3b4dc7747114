"""Point-to-point message delivery between named nodes.

The :class:`Network` is intentionally simple — a switched LAN where every
ordered pair of distinct nodes shares one delay model — because the paper's
evaluation depends only on the one-way delay magnitude, not on topology.
Per-link overrides are supported for experiments that need asymmetric
latency (e.g. fault-injection tests).
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, NamedTuple, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.net.fault import FaultInjector
from repro.net.latency import DelayModel, paper_calibrated_delay
from repro.sim.kernel import Simulator
from repro.sim.monitor import StatSeries

#: Event priority for message deliveries: after CPU completions (50) but
#: before default events (100), so a completion at time t is visible to a
#: message arriving at the same instant.
_DELIVERY_EVENT_PRIORITY = 75


class Message(NamedTuple):
    """An in-flight network message (exposed to delivery callbacks)."""

    source: str
    destination: str
    topic: str
    payload: Any
    sent_at: float
    delay: float

    @property
    def delivered_at(self) -> float:
        return self.sent_at + self.delay


class Network:
    """A LAN of named nodes with stochastic one-way delays.

    Parameters
    ----------
    sim:
        The simulation kernel.
    rng:
        Random stream for delay sampling.
    default_delay:
        Delay model for all links without an override; defaults to the
        paper-calibrated triangular distribution.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        default_delay: Optional[DelayModel] = None,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.default_delay = default_delay or paper_calibrated_delay()
        self._nodes: Set[str] = set()
        self._link_overrides: Dict[Tuple[str, str], DelayModel] = {}
        #: One-way delay samples, for the Figure 8 "communication delay" row.
        self.delay_stats = StatSeries()
        self.messages_sent = 0
        #: Chaos layer: consulted on every remote send when installed and
        #: armed (see repro.net.fault).  None on ordinary runs.
        self.fault_injector: Optional[FaultInjector] = None

    def install_fault_injector(self, injector: Optional[FaultInjector]) -> None:
        """Install (or clear) the fault injector consulted by :meth:`send`."""
        self.fault_injector = injector

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> None:
        if name in self._nodes:
            raise SimulationError(f"node {name!r} already exists")
        self._nodes.add(name)

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    @property
    def nodes(self) -> Set[str]:
        return set(self._nodes)

    def set_link_delay(self, source: str, destination: str, model: DelayModel) -> None:
        """Override the delay model for the ordered link (source, destination)."""
        self._check(source)
        self._check(destination)
        self._link_overrides[(source, destination)] = model

    def _check(self, name: str) -> None:
        if name not in self._nodes:
            raise SimulationError(f"unknown node {name!r}")

    def _model_for(self, source: str, destination: str) -> DelayModel:
        return self._link_overrides.get((source, destination), self.default_delay)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self,
        source: str,
        destination: str,
        topic: str,
        payload: Any,
        on_deliver: Callable[[Message], None],
    ) -> Message:
        """Send ``payload`` from ``source`` to ``destination``.

        ``on_deliver(message)`` fires after the sampled one-way delay.
        Sending to the local node delivers after zero delay (the paper's
        local event channel does not traverse the gateway) and never
        consults the fault injector.

        With an armed fault injector installed, a remote send inside a
        crash/partition/loss window is *suppressed*: it still counts in
        ``messages_sent`` (the sender paid for it) but samples no delay,
        records no delay statistic, and never delivers — the returned
        message carries an infinite delay as the dropped marker.  An
        idle injector (``armed`` is a plain ``False`` attribute) costs a
        remote send two attribute loads and a truth test.
        """
        nodes = self._nodes
        if source not in nodes or destination not in nodes:
            self._check(source)
            self._check(destination)
        sim = self.sim
        now = sim.now
        if source == destination:
            delay = 0.0
        else:
            injector = self.fault_injector
            if injector is not None and injector.armed:
                cause, factor = injector.on_send(source, destination, now)
                if cause is not None:
                    self.messages_sent += 1
                    return Message(source, destination, topic, payload, now, math.inf)
                delay = self._model_for(source, destination).sample(self.rng)
                delay *= factor
            else:
                delay = self._model_for(source, destination).sample(self.rng)
            self.delay_stats.add(delay)
        message = Message(source, destination, topic, payload, now, delay)
        self.messages_sent += 1
        sim.schedule_at(
            now + delay, on_deliver, message, priority=_DELIVERY_EVENT_PRIORITY
        )
        return message
