"""Deterministic network fault injection.

The :class:`FaultInjector` is the single point where chaos disturbances
(:class:`~repro.api.scenario.NodeCrash`, ``Partition``, ``DelaySpike``,
``MessageLoss``) touch the message layer.  :meth:`Network.send
<repro.net.network.Network.send>` consults it for every send and either
suppresses the message (crash / partition / loss) or stretches its
sampled delay (spike).  Every send is remote: a push to a consumer on its
own node is the federation's direct call, as the paper's local event
channel bypasses the gateway, and never reaches the network or the
injector.

Determinism contract
--------------------
* All fault decisions are pure functions of ``(source, destination,
  now)`` and the injector's static window configuration — except message
  loss, which draws from one named RNG stream *per directed link*
  (``"<stream>:<src>-><dst>"``), so loss on one link never perturbs
  another link's draws and a run is bit-identical for a fixed seed
  regardless of worker count or rerun.
* An injector with no faults configured (``armed`` is ``False``) makes
  no RNG draws and changes no behavior: a fault-free run with the
  injector installed is bit-identical to a run without it.  Fault-free
  scenarios install none; an installed injector's cost on the send path
  is part of the ``dist_faults`` benchmark workload's host time.
* Drops are decided at *send* time: messages already in flight when a
  partition starts (or a node crashes) still deliver, like frames
  already on the wire when a switch loses a segment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.metrics.faults import FaultMetrics
from repro.sim.rng import RngRegistry

#: Drop causes :meth:`FaultInjector.on_send` returns.
DROP_CRASH = "crash"
DROP_PARTITION = "partition"
DROP_LOSS = "loss"


@dataclass(frozen=True)
class _PartitionWindow:
    start: float
    end: float
    group_a: frozenset
    group_b: frozenset

    def severs(self, source: str, destination: str, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        return (source in self.group_a and destination in self.group_b) or (
            source in self.group_b and destination in self.group_a
        )


@dataclass(frozen=True)
class _SpikeWindow:
    start: float
    end: float
    factor: float


@dataclass(frozen=True)
class _LossConfig:
    probability: float
    start: float
    end: float
    stream: str


class FaultInjector:
    """Static fault-window configuration consulted on every remote send.

    Build one with the ``add_*`` methods (or
    :func:`injector_from_disturbances`) before the run starts; windows
    are immutable thereafter, so two runs of the same scenario consult
    identical state.
    """

    def __init__(self, rngs: RngRegistry) -> None:
        self._rngs = rngs
        #: node -> list of (crash time, recovery time) windows.
        self._crashes: Dict[str, List[Tuple[float, float]]] = {}
        self._partitions: List[_PartitionWindow] = []
        self._spikes: List[_SpikeWindow] = []
        self._losses: List[_LossConfig] = []
        #: Lazily created per-directed-link loss streams, keyed by
        #: (loss stream name, source, destination).
        self._loss_rngs: Dict[Tuple[str, str, str], random.Random] = {}
        self.metrics = FaultMetrics()
        #: True once any fault window is configured.  A plain attribute
        #: set by the ``add_*`` methods, not computed on read, because
        #: ``Network.send`` reads it on every remote send.
        self.armed = False

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_crash(
        self, node: str, time: float, recovery: Optional[float] = None
    ) -> None:
        end = math.inf if recovery is None else recovery
        self._crashes.setdefault(node, []).append((time, end))
        self.armed = True

    def add_partition(
        self,
        time: float,
        heal: float,
        group_a: Tuple[str, ...],
        group_b: Tuple[str, ...],
    ) -> None:
        self._partitions.append(
            _PartitionWindow(
                start=time,
                end=heal,
                group_a=frozenset(group_a),
                group_b=frozenset(group_b),
            )
        )
        self.armed = True

    def add_delay_spike(self, time: float, until: float, factor: float) -> None:
        self._spikes.append(_SpikeWindow(start=time, end=until, factor=factor))
        self.armed = True

    def add_message_loss(
        self,
        probability: float,
        time: float = 0.0,
        until: Optional[float] = None,
        stream: str = "message_loss",
    ) -> None:
        end = math.inf if until is None else until
        self._losses.append(
            _LossConfig(probability=probability, start=time, end=end, stream=stream)
        )
        self.armed = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node_crashed(self, node: str, now: float) -> bool:
        """True while ``node`` is inside one of its crash windows."""
        for start, end in self._crashes.get(node, ()):
            if start <= now < end:
                return True
        return False

    def delay_factor(self, now: float) -> float:
        """Product of all active spike factors (1.0 outside windows)."""
        factor = 1.0
        for spike in self._spikes:
            if spike.start <= now < spike.end:
                factor *= spike.factor
        return factor

    def on_send(
        self, source: str, destination: str, now: float
    ) -> Tuple[Optional[str], float]:
        """Decide the fate of one remote send at time ``now``.

        Returns ``(drop_cause, delay_factor)``: a non-``None`` cause
        means the message is suppressed (and the drop already counted);
        otherwise the sampled delay should be multiplied by the factor.
        Crash and partition checks run before loss draws so suppressed
        links consume no RNG draws.
        """
        if self.node_crashed(source, now) or self.node_crashed(destination, now):
            self.metrics.record_drop()
            return DROP_CRASH, 1.0
        for window in self._partitions:
            if window.severs(source, destination, now):
                self.metrics.record_drop()
                return DROP_PARTITION, 1.0
        for loss in self._losses:
            if not loss.start <= now < loss.end:
                continue
            if self._link_rng(loss.stream, source, destination).random() < (
                loss.probability
            ):
                self.metrics.record_drop()
                return DROP_LOSS, 1.0
        factor = self.delay_factor(now)
        if factor != 1.0:  # repro-lint: disable=RL004
            self.metrics.record_spike()
        return None, factor

    def _link_rng(
        self, stream: str, source: str, destination: str
    ) -> random.Random:
        key = (stream, source, destination)
        rng = self._loss_rngs.get(key)
        if rng is None:
            rng = self._rngs.stream(f"{stream}:{source}->{destination}")
            self._loss_rngs[key] = rng
        return rng


def injector_from_disturbances(disturbances, rngs: RngRegistry):
    """Build a :class:`FaultInjector` from a scenario's fault disturbances.

    Returns ``None`` when no fault disturbance is present, so callers can
    leave the network's injector slot empty on fault-free runs.  Burst
    and slowdown disturbances are ignored here — they shape the workload,
    not the network — and are handled by the session layer.
    """
    # Local import: repro.api.scenario imports the net package, so the
    # dispatch table cannot be a module-level import without a cycle.
    from repro.api.scenario import DelaySpike, MessageLoss, NodeCrash, Partition

    injector = FaultInjector(rngs)
    for disturbance in disturbances:
        if isinstance(disturbance, NodeCrash):
            injector.add_crash(
                disturbance.node, disturbance.time, disturbance.recovery
            )
        elif isinstance(disturbance, Partition):
            injector.add_partition(
                disturbance.time,
                disturbance.heal,
                disturbance.group_a,
                disturbance.group_b,
            )
        elif isinstance(disturbance, DelaySpike):
            injector.add_delay_spike(
                disturbance.time, disturbance.until, disturbance.factor
            )
        elif isinstance(disturbance, MessageLoss):
            injector.add_message_loss(
                disturbance.probability,
                disturbance.time,
                disturbance.until,
                disturbance.stream,
            )
    return injector if injector.armed else None
