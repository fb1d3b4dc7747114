"""Network substrate: links, message delivery and event channels.

Replaces the paper's 100 Mbps switched Ethernet and TAO's federated event
channel.  The communication-delay distribution is configurable; the default
(:func:`repro.net.latency.paper_calibrated_delay`) is calibrated to the
paper's Figure 8 measurement (mean 322 us, max 361 us one-way).
"""

from repro.net.channel import LocalEventChannel
from repro.net.federation import FederatedEventChannel
from repro.net.latency import (
    ConstantDelay,
    DelayModel,
    NormalDelay,
    TriangularDelay,
    UniformDelay,
    paper_calibrated_delay,
)
from repro.net.network import Network

__all__ = [
    "LocalEventChannel",
    "FederatedEventChannel",
    "ConstantDelay",
    "DelayModel",
    "NormalDelay",
    "TriangularDelay",
    "UniformDelay",
    "paper_calibrated_delay",
    "Network",
]
