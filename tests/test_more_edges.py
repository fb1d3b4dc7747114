"""Additional edge coverage: federation broadcast timing, CPU accounting
after speed changes, a scenario's runtime options reaching the system."""

import random

import pytest

from repro.api import Scenario, Session, WorkloadSource
from repro.core.cost_model import CostModel
from repro.cpu.processor import Processor
from repro.cpu.thread import WorkItem
from repro.net.federation import FederatedEventChannel
from repro.net.latency import ConstantDelay
from repro.net.network import Network
from repro.sim.kernel import Simulator

from tests.taskutil import make_two_node_workload


class TestFederationBroadcastTiming:
    def test_remote_subscribers_receive_after_delay_local_instantly(self):
        sim = Simulator()
        net = Network(sim, random.Random(0), ConstantDelay(0.01))
        fed = FederatedEventChannel(net)
        for node in ("a", "b"):
            fed.add_node(node)
        arrivals = []
        fed.subscribe("a", "t", lambda p: arrivals.append(("a", sim.now)))
        fed.subscribe("b", "t", lambda p: arrivals.append(("b", sim.now)))
        fed.publish("a", "t", "x")
        sim.run()
        assert ("a", 0.0) in arrivals
        assert ("b", 0.01) in arrivals


class TestCpuAccountingAfterSpeedChange:
    def test_busy_fraction_reflects_stretched_execution(self):
        sim = Simulator()
        cpu = Processor(sim, "p")
        t = cpu.new_thread("t", 1.0)
        cpu.submit(t, WorkItem(2.0))
        sim.schedule(1.0, cpu.set_speed, 0.5)  # remaining 1 unit takes 2 s
        sim.run(until=4.0)
        # Busy from 0 to 3, idle 3-4.
        assert cpu.utilization(4.0) == pytest.approx(0.75)


class TestDeploymentKwargs:
    def test_engine_passes_runtime_options_through(self):
        scenario = Scenario(
            workload=WorkloadSource.explicit(make_two_node_workload()),
            combo="J_N_N",
            seed=3,
            cost_model=CostModel.zero(),
            delay_model=ConstantDelay(0.002),
            aperiodic_interarrival_factor=1.5,
            arrival_batching=True,
        )
        system = Session(scenario).deploy()
        assert system.cost_model.admission_test == 0.0
        assert system.aperiodic_interarrival_factor == 1.5
        assert system.network.default_delay.delay == 0.002
        assert system.ac.get_attribute("batching") is True
