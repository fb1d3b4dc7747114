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
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.errors import SimulationError
from repro.net.channel import LocalEventChannel
from repro.net.network import Network


class FederatedEventChannel:
    """A federation of per-node local event channels joined by gateways."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._channels: Dict[str, LocalEventChannel] = {}
        self.remote_forwards = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, node: str) -> LocalEventChannel:
        """Create the local event channel (and gateway) for ``node``."""
        if node in self._channels:
            raise SimulationError(f"node {node!r} already federated")
        if not self.network.has_node(node):
            self.network.add_node(node)
        channel = LocalEventChannel(node)
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
        ``destination`` only, after one network hop from ``source``."""
        channel = self.channel(destination)
        if source == destination:
            channel.push(topic, payload)
            return
        self.remote_forwards += 1
        self.network.send(source, destination, topic, payload, channel.deliver)

    def publish(self, source: str, topic: str, payload: Any) -> None:
        """Broadcast push: deliver to ``topic`` subscribers on every node."""
        for node, channel in self._channels.items():
            if channel.subscriber_count(topic) == 0:
                continue
            if node == source:
                channel.push(topic, payload)
            else:
                self.remote_forwards += 1
                self.network.send(source, node, topic, payload, channel.deliver)
