"""Point-to-point message delivery between named nodes.

The :class:`Network` is intentionally simple — a switched LAN where every
ordered pair of distinct nodes shares one delay model — because the paper's
evaluation depends only on the one-way delay magnitude, not on topology.
Per-link overrides are supported for experiments that need asymmetric
latency (e.g. fault-injection tests).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.net.fault import FaultInjector
from repro.net.latency import DelayModel, paper_calibrated_delay
from repro.sim.kernel import Simulator
from repro.sim.monitor import StatSeries

#: Event priority for message deliveries: after CPU completions (50) but
#: before default events (100), so a completion at time t is visible to a
#: message arriving at the same instant.
_DELIVERY_EVENT_PRIORITY = 75


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
        #: Chaos layer: consulted on every send when installed and
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
        payload: Any,
        on_deliver: Callable[[Any], None],
    ) -> None:
        """Send ``payload`` from ``source`` to another node, ``destination``.

        ``on_deliver(payload)`` fires after the sampled one-way delay.  A
        send from a node to itself raises :class:`SimulationError`: a
        message always crosses the network.

        With an armed fault injector installed, a send inside a
        crash/partition/loss window is *suppressed*: it still counts in
        ``messages_sent`` (the sender paid for it) but samples no delay,
        records no delay statistic, and never delivers.  An idle
        injector (``armed`` is a plain ``False`` attribute) costs a send
        two attribute loads and a truth test.
        """
        nodes = self._nodes
        if source not in nodes or destination not in nodes:
            self._check(source)
            self._check(destination)
        if source == destination:
            raise SimulationError(f"node {source!r} cannot send a message to itself")
        sim = self.sim
        now = sim.now
        injector = self.fault_injector
        if injector is not None and injector.armed:
            cause, factor = injector.on_send(source, destination, now)
            if cause is not None:
                self.messages_sent += 1
                return
            delay = self._model_for(source, destination).sample(self.rng)
            delay *= factor
        else:
            delay = self._model_for(source, destination).sample(self.rng)
        self.delay_stats.add(delay)
        self.messages_sent += 1
        sim.schedule_at(
            now + delay, on_deliver, payload, priority=_DELIVERY_EVENT_PRIORITY
        )
