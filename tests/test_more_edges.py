"""Additional edge coverage: XML escaping, federation broadcast timing,
CPU accounting after speed changes, deployment kwargs passthrough."""

import random

import pytest

from repro.config.plan import ComponentInstance, DeploymentPlan
from repro.config.xml_io import parse_xml, to_xml
from repro.core.cost_model import CostModel
from repro.core.strategies import StrategyCombo
from repro.config.dance import deploy_plan
from repro.config.plan import build_deployment_plan
from repro.cpu.processor import Processor
from repro.cpu.thread import WorkItem
from repro.net.federation import FederatedEventChannel
from repro.net.latency import ConstantDelay
from repro.net.network import Network
from repro.sim.kernel import Simulator

from tests.taskutil import make_two_node_workload


class TestXmlEscaping:
    def test_special_characters_in_properties_roundtrip(self):
        plan = DeploymentPlan(
            label="weird & <plan>",
            manager_node="mgr",
            app_nodes=("n1",),
            instances=(
                ComponentInstance.make(
                    "inst<1>",
                    "impl&co",
                    "n1",
                    {"note": "a < b & c > d", "count": 3, "ratio": 0.5},
                ),
            ),
            connections=(),
            workload_json="{}",
        )
        parsed = parse_xml(to_xml(plan))
        assert parsed.label == "weird & <plan>"
        inst = parsed.instance("inst<1>")
        props = inst.property_dict()
        assert props["note"] == "a < b & c > d"
        assert props["count"] == 3
        assert props["ratio"] == 0.5

    def test_unencodable_property_rejected(self):
        from repro.errors import ConfigurationError

        plan = DeploymentPlan(
            label="p",
            manager_node="mgr",
            app_nodes=("n1",),
            instances=(
                ComponentInstance.make("i", "impl", "n1", {"bad": [1, 2]}),
            ),
            connections=(),
            workload_json="{}",
        )
        with pytest.raises(ConfigurationError):
            to_xml(plan)


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
        workload = make_two_node_workload()
        plan = build_deployment_plan(workload, StrategyCombo.from_label("J_N_N"))
        system = deploy_plan(
            plan,
            seed=3,
            cost_model=CostModel.zero(),
            delay_model=ConstantDelay(0.002),
            aperiodic_interarrival_factor=1.5,
            arrival_batching=True,
        )
        assert system.cost_model.admission_test == 0.0
        assert system.aperiodic_interarrival_factor == 1.5
        assert system.network.default_delay.delay == 0.002
        assert system.ac.get_attribute("batching") is True
