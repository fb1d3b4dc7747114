"""Containers: the execution environment binding components to a node.

A container lives on exactly one processor and provides its components
access to the simulation kernel, the processor (for dispatch threads) and
the event-channel federation.  This mirrors CIAO's
container-per-node architecture in the paper's Figure 3.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ccm.component import Component
from repro.cpu.processor import Processor
from repro.errors import ComponentError
from repro.net.federation import FederatedEventChannel
from repro.sim.kernel import Simulator


class Container:
    """Execution environment for components on one processor."""

    def __init__(
        self, processor: Processor, federation: FederatedEventChannel
    ) -> None:
        self.processor = processor
        #: Bound once: install copies them onto each component.
        self.node: str = processor.name
        self.sim: Simulator = processor.sim
        self.federation = federation
        self.components: List[Component] = []
        self._by_name: Dict[str, Component] = {}

    def install(self, component: Component) -> Component:
        """Install ``component`` into this container and run its hook."""
        if component.container is not None:
            raise ComponentError(
                f"component {component.name!r} is already installed"
            )
        if component.name in self._by_name:
            raise ComponentError(
                f"container on {self.node!r} already hosts a component "
                f"named {component.name!r}"
            )
        component.container = self
        # The component's context: plain attribute reads from here on.
        component.node = self.node
        component.sim = self.sim
        component.processor = self.processor
        self.components.append(component)
        self._by_name[component.name] = component
        component.on_install(self)
        return component

    def lookup(self, name: str) -> Component:
        try:
            return self._by_name[name]
        except KeyError:
            raise ComponentError(
                f"no component named {name!r} on node {self.node!r}"
            ) from None

    def activate_all(self) -> None:
        """Activate every installed component (deployment final step)."""
        for component in self.components:
            if not component.activated:
                component.activate()

    def release_components(self) -> None:
        """Empty the component table, as an application is torn down
        after its run: :meth:`lookup` finds nothing, and a component
        still held elsewhere keeps its context (container, node, ...)."""
        self.components.clear()
        self._by_name.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Container node={self.node!r} components={len(self.components)}>"
