"""Discrete-event simulation substrate.

This package replaces the paper's physical testbed (six KURT-Linux machines
on a 100 Mbps switch) with a deterministic virtual-time simulator.  All
middleware components in :mod:`repro.core` execute against a
:class:`~repro.sim.kernel.Simulator` instance, which provides:

* an event heap with deterministic ordering (time, priority, sequence),
* cancellable event handles,
* named, seeded random-number streams (:mod:`repro.sim.rng`),
* statistics collection (:mod:`repro.sim.monitor`).
"""

from repro.sim.kernel import EventHandle, Simulator
from repro.sim.monitor import StatSeries, TimeWeightedStat
from repro.sim.rng import RngRegistry

__all__ = [
    "EventHandle",
    "Simulator",
    "RngRegistry",
    "StatSeries",
    "TimeWeightedStat",
]
