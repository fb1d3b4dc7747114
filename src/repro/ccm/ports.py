"""Component ports: event sources/sinks and facets/receptacles.

Event ports ride on the federated event channel
(:class:`repro.net.federation.FederatedEventChannel`): a source pushes a
payload to a topic, point-to-point to a destination node; a sink subscribes
its handler on its own node, and each push reaches that handler with the
bare payload.  Facets model the synchronous method collaborations in the
paper's Figure 3 (AC -> LB "Location" calls, subtask -> IR "Complete"
calls), which are always node-local in the paper's deployment; the AC and
LB reach theirs through receptacles, while a node's stage host holds the
IR's facet itself, for every subtask stage it hosts.

A source port holds its owner's container and name, not its owner: a
component holds its ports, so a port that held its component back would
put every component with one on a reference cycle of its own, and a
finished deployment's stage hosts would wait for the cycle collector
instead of being freed when the run uninstalls them
(:meth:`repro.core.middleware.MiddlewareSystem.run_plan`).  A source port
is built at install (:meth:`Component.on_install`); one built before its
owner is installed has no container, and every push through it fails.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.errors import PortError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ccm.component import Component


class EventSourcePort:
    """A publishes port: push events to a topic on a destination node."""

    def __init__(self, owner: "Component", name: str) -> None:
        #: The owner's container when the port was built (None before
        #: install) and the owner's name, for errors.
        self.container = owner.container
        self.owner_name = owner.name
        self.name = name

    def push(self, destination: str, topic: str, payload: Any) -> None:
        """Push ``payload`` point-to-point to ``topic`` on ``destination``."""
        container = self.container
        if container is None:
            raise PortError(
                f"event source {self.name!r} of {self.owner_name!r}: not installed"
            )
        container.federation.send(container.node, destination, topic, payload)

    def broadcast(self, topic: str, payload: Any) -> None:
        """Publish ``payload`` to every subscriber of ``topic``."""
        container = self.container
        if container is None:
            raise PortError(
                f"event source {self.name!r} of {self.owner_name!r}: not installed"
            )
        container.federation.publish(container.node, topic, payload)


class EventSinkPort:
    """A consumes port: a handler subscribed to a topic on the local node."""

    def __init__(self, owner: "Component", name: str, handler: Callable[[Any], None]) -> None:
        self.owner = owner
        self.name = name
        self.handler = handler

    def subscribe(self, topic: str) -> None:
        container = self.owner.container
        if container is None:
            raise PortError(
                f"event sink {self.name!r} of {self.owner.name!r}: not installed"
            )
        container.federation.subscribe(container.node, topic, self.handler)


class Facet:
    """A provides port: a named object offering methods to receptacles."""

    def __init__(self, owner: "Component", name: str, obj: Any) -> None:
        self.owner = owner
        self.name = name
        self.obj = obj


class Receptacle:
    """A uses port: holds a reference to a connected facet."""

    def __init__(self, owner: "Component", name: str) -> None:
        self.owner = owner
        self.name = name
        self._facet: Optional[Facet] = None

    def connect(self, facet: Facet) -> None:
        if self._facet is not None:
            raise PortError(
                f"receptacle {self.name!r} of {self.owner.name!r} already connected"
            )
        self._facet = facet

    @property
    def connected(self) -> bool:
        return self._facet is not None

    def __call__(self) -> Any:
        """Dereference the connected facet's object."""
        if self._facet is None:
            raise PortError(
                f"receptacle {self.name!r} of {self.owner.name!r} is not connected"
            )
        return self._facet.obj
