"""A finished run frees its subtask replicas at once, on both engines.

``MiddlewareSystem.run_plan`` (which the distributed engine inherits)
uninstalls the application once its results are read: it drains the
kernel, drops the work still queued on the processors and empties the
``(task, stage, node)`` table and the containers' component tables.  The
replicas then go by reference counting inside ``Session.run``, while the
services, their counters and the metrics stay readable through
``session.system``.
"""

import gc
import random
import weakref

import pytest

from repro.api import (
    Burst,
    MessageLoss,
    NodeCrash,
    Scenario,
    Session,
    WorkloadSource,
)
from repro.ccm.component import Component
from repro.ccm.container import Container
from repro.ccm.ports import EventSourcePort
from repro.cpu.processor import Processor
from repro.cpu.thread import WorkItem
from repro.errors import ComponentError
from repro.net.federation import FederatedEventChannel
from repro.net.latency import ConstantDelay
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.workloads.generator import RandomWorkloadParams
from tests.uninstallutil import run_freeing_replicas

WORKLOAD = WorkloadSource.random(seed=17, params=RandomWorkloadParams(n_processors=3))

CELLS = {
    "batched": Scenario(
        workload=WORKLOAD,
        combo="J_J_J",
        duration=10.0,
        seed=5,
        arrival_batching=True,
        disturbances=(Burst(time=4.0, jobs=20, spacing=1e-4),),
    ),
    "sequential": Scenario(workload=WORKLOAD, combo="J_J_J", duration=10.0, seed=5),
    "distributed": Scenario(
        workload=WORKLOAD,
        engine="distributed",
        combo="J_N_N",
        duration=10.0,
        seed=5,
        disturbances=(MessageLoss(probability=0.2, until=10.0),),
    ),
    # No recovery and no drain window: at the horizon events are still
    # pending and a processor still has work queued.
    "crash_forever": Scenario(
        workload=WORKLOAD,
        engine="distributed",
        combo="J_N_N",
        duration=3.0,
        seed=5,
        drain=False,
        disturbances=(NodeCrash(node="app1", time=1.0),),
    ),
}


@pytest.mark.parametrize("name", list(CELLS))
def test_replicas_are_freed_when_the_run_returns(name):
    session = Session(CELLS[name])
    system = session.deploy()
    at_horizon = {}
    drain = system.sim.drain

    def recording_drain():
        at_horizon["pending"] = system.sim.pending_events
        at_horizon["busy"] = [n for n, p in system.processors.items() if not p.idle]
        drain()

    system.sim.drain = recording_drain
    result = run_freeing_replicas(session)
    assert session.system is system
    if name == "crash_forever":
        assert at_horizon["pending"] > 0 and at_horizon["busy"], at_horizon
    else:
        assert at_horizon == {"pending": 0, "busy": []}
    assert system.sim.pending_events == 0
    assert all(p.idle for p in system.processors.values())
    assert not system.env.subtask_instances
    assert not any(c.components for c in system.containers.values())
    # The services, their counters and the metrics stay.
    metrics = system.metrics
    assert metrics.arrived_jobs == result.arrived_jobs > 0
    assert metrics.completed_jobs == result.completed_jobs > 0
    assert metrics.response_times.count == result.completed_jobs
    assert system.network.messages_sent == result.messages_sent
    if CELLS[name].engine == "distributed":
        rounds = [system.acs[n].coordination_rounds for n in sorted(system.acs)]
        assert sum(rounds) > 0, rounds
        return
    ac = system.ac
    assert ac.analyzer.tests_performed > 0
    if CELLS[name].arrival_batching:
        assert ac.analyzer.batch_sessions > 0
        assert ac.batched_arrivals >= ac.batch_calls > 0
    else:
        assert ac.batch_calls == ac.batched_arrivals == 0


# ----------------------------------------------------------------------
# The pieces of the teardown
# ----------------------------------------------------------------------
class Widget(Component):
    def on_install(self, container):
        self.out = EventSourcePort(self, "out")


def make_container(node="n1"):
    sim = Simulator()
    network = Network(sim, random.Random(0), ConstantDelay(0.001))
    federation = FederatedEventChannel(network)
    federation.add_node(node)
    return Container(Processor(sim, node), federation)


def test_a_component_with_a_source_port_is_freed_without_the_collector():
    container = make_container()
    widget = container.install(Widget("w"))
    assert widget.out.container is container and widget.out.owner_name == "w"
    container.release_components()
    ref = weakref.ref(widget)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del widget
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_released_container_finds_nothing_and_its_components_keep_their_context():
    container = make_container()
    widget = container.install(Widget("w"))
    container.release_components()
    assert container.components == []
    with pytest.raises(ComponentError, match="no component named 'w'"):
        container.lookup("w")
    assert widget.container is container and widget.node == "n1"
    container.install(Widget("w"))  # the name is free again


def test_discard_work_leaves_the_processor_idle_with_its_counters():
    sim = Simulator()
    cpu = Processor(sim, "p")
    low, high = cpu.new_thread("low", 2.0), cpu.new_thread("high", 1.0)
    done = []
    cpu.submit(low, WorkItem(1.0, done.append, "low-1"))
    cpu.submit(low, WorkItem(1.0, done.append, "low-2"))
    sim.run(until=0.5)
    cpu.submit(high, WorkItem(1.0, done.append, "high"))
    sim.run(until=1.0)
    assert not cpu.idle and cpu.items_completed == 0
    utilization = cpu.utilization(1.0)
    sim.drain()
    cpu.discard_work()
    assert cpu.idle and cpu.running is None
    assert low.queue == [] and high.queue == []
    assert cpu.items_completed == 0 and cpu.utilization(1.0) == utilization
    sim.run(until=5.0)
    assert done == []
