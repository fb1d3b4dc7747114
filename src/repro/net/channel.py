"""Local (per-node) typed publish/subscribe event channel.

Models one of TAO's real-time event channels running on a single
processor: publishers push events by topic; all local subscribers receive
them synchronously (network delays only apply when the federation forwards
an event to another node).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

Subscriber = Callable[[Any], None]
#: (node, topic) -> the one callable a push to that pair reaches.
Routes = Dict[Tuple[str, str], Subscriber]


class LocalEventChannel:
    """Topic-based pub/sub within a single node.

    :meth:`subscribe` also binds the route ``(node, topic)`` in ``routes``,
    the table the federation shares among its channels: the consumer
    itself, or, once a topic has several, a fan-out that pushes to all of
    them in registration order.  Each topic's subscribers are a tuple that
    :meth:`subscribe` replaces, so a consumer subscribed during a push
    starts with the next push.
    """

    def __init__(self, node: str, routes: Optional[Routes] = None) -> None:
        self.node = node
        self._subscribers: Dict[str, Tuple[Subscriber, ...]] = {}
        self._routes: Routes = {} if routes is None else routes

    def subscribe(self, topic: str, consumer: Subscriber) -> None:
        """Register ``consumer`` for all events pushed to ``topic``."""
        consumers = self._subscribers.get(topic, ()) + (consumer,)
        self._subscribers[topic] = consumers
        self._routes[self.node, topic] = (
            consumer
            if len(consumers) == 1
            else lambda payload: self.push(topic, payload)
        )

    def subscriber_count(self, topic: str) -> int:
        return len(self._subscribers.get(topic, ()))

    def push(self, topic: str, payload: Any) -> int:
        """Deliver ``payload`` to every local subscriber of ``topic``.

        Returns the number of subscribers notified.
        """
        consumers = self._subscribers.get(topic, ())
        for consumer in consumers:
            consumer(payload)
        return len(consumers)
