"""Federated event channel spanning all processors.

Mirrors TAO's federated event channel architecture (paper section 3): each
processor hosts a local event channel; gateways forward events between
local channels over the network.  Two delivery modes are offered:

* :meth:`FederatedEventChannel.publish` — push to *all* subscribers of a
  topic, on every node (local subscribers synchronously, remote ones after
  a sampled network delay per node).
* :meth:`FederatedEventChannel.send` — point-to-point push to subscribers
  of a topic on one destination node.  The paper's control events
  ("Task Arrive", "Accept", "Trigger", "Idle Resetting") are all
  point-to-point, so this is the mode the middleware services use.

The wiring is bound once, when a consumer subscribes, as the paper's
configuration engine wires ports at deployment: a push looks up its
``(destination, topic)`` route and calls it with the bare payload, on the
same node at once, on another node through :meth:`Network.send`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.errors import SimulationError
from repro.net.channel import LocalEventChannel, Routes
from repro.net.network import Network


class FederatedEventChannel:
    """A federation of per-node local event channels joined by gateways."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._channels: Dict[str, LocalEventChannel] = {}
        #: Bound by the channels' ``subscribe``; read by every push.
        self._routes: Routes = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, node: str) -> LocalEventChannel:
        """Create the local event channel (and gateway) for ``node``."""
        if node in self._channels:
            raise SimulationError(f"node {node!r} already federated")
        if not self.network.has_node(node):
            self.network.add_node(node)
        channel = LocalEventChannel(node, self._routes)
        self._channels[node] = channel
        return channel

    def channel(self, node: str) -> LocalEventChannel:
        try:
            return self._channels[node]
        except KeyError:
            raise SimulationError(f"node {node!r} is not federated") from None

    @property
    def nodes(self) -> list:
        return sorted(self._channels)

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(self, node: str, topic: str, consumer: Callable[[Any], None]) -> None:
        """Subscribe ``consumer`` on ``node`` to ``topic``."""
        self.channel(node).subscribe(topic, consumer)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(self, source: str, destination: str, topic: str, payload: Any) -> None:
        """Point-to-point push: deliver to ``topic`` subscribers on
        ``destination`` only, after one network hop from ``source``.

        A push nobody subscribed to is a wiring fault and raises
        :class:`SimulationError`.
        """
        try:
            route = self._routes[destination, topic]
        except KeyError:
            self.channel(destination)  # an unknown node fails as such
            raise SimulationError(
                f"no subscriber to topic {topic!r} on node {destination!r}"
            ) from None
        if source == destination:
            route(payload)
        else:
            self.network.send(source, destination, payload, route)

    def publish(self, source: str, topic: str, payload: Any) -> None:
        """Broadcast push: deliver to ``topic`` subscribers on every node."""
        routes = self._routes
        for node in self._channels:
            route = routes.get((node, topic))
            if route is None:
                continue
            if node == source:
                route(payload)
            else:
                self.network.send(source, node, payload, route)
