"""Local (per-node) typed publish/subscribe event channel.

Models one of TAO's real-time event channels running on a single
processor: publishers push events by topic; all local subscribers receive
them synchronously (network delays only apply when the federation forwards
an event to another node).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Message

Subscriber = Callable[[Any], None]


class LocalEventChannel:
    """Topic-based pub/sub within a single node.

    Each topic's subscribers are an immutable tuple that subscribe and
    unsubscribe replace (copy-on-write), so a push iterates the tuple it
    started with without copying it: a consumer that subscribes or
    unsubscribes during a push changes later pushes, not that one.
    """

    def __init__(self, node: str) -> None:
        self.node = node
        self._subscribers: Dict[str, Tuple[Subscriber, ...]] = {}
        self.events_delivered = 0

    def subscribe(self, topic: str, consumer: Subscriber) -> None:
        """Register ``consumer`` for all events pushed to ``topic``."""
        self._subscribers[topic] = self._subscribers.get(topic, ()) + (consumer,)

    def unsubscribe(self, topic: str, consumer: Subscriber) -> None:
        consumers = self._subscribers.get(topic, ())
        if consumer in consumers:
            i = consumers.index(consumer)
            self._subscribers[topic] = consumers[:i] + consumers[i + 1:]

    def subscriber_count(self, topic: str) -> int:
        return len(self._subscribers.get(topic, ()))

    def push(self, topic: str, payload: Any) -> int:
        """Deliver ``payload`` to every local subscriber of ``topic``.

        Returns the number of subscribers notified.
        """
        consumers = self._subscribers.get(topic, ())
        for consumer in consumers:
            self.events_delivered += 1
            consumer(payload)
        return len(consumers)

    def deliver(self, message: "Message") -> None:
        """Network delivery callback for events the federation forwards
        here: push the message's payload to its topic."""
        self.push(message.topic, message.payload)
