"""CCM-lite component model (the CIAO substrate).

A minimal but faithful rendition of the Lightweight CORBA Component Model
architecture the paper builds on:

* :class:`~repro.ccm.component.Component` — unit of implementation with
  declared, validated **attributes** (``configProperty`` in the paper's
  XML plans) and a standard ``set_configuration`` Configurator interface.
* :mod:`repro.ccm.ports` — **event source/sink** ports (push-style events
  through the federated event channel) and **facet/receptacle** ports
  (synchronous method collaboration, e.g. the AC component's "Location"
  calls on the LB component).
* :class:`~repro.ccm.container.Container` — execution environment binding
  components to a processor and the event-channel federation.
"""

from repro.ccm.component import AttributeSpec, Component
from repro.ccm.container import Container
from repro.ccm.ports import EventSinkPort, EventSourcePort, Facet, Receptacle

__all__ = [
    "AttributeSpec",
    "Component",
    "Container",
    "EventSinkPort",
    "EventSourcePort",
    "Facet",
    "Receptacle",
]
