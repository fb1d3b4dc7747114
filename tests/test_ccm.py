"""Unit tests for the CCM-lite component model."""

import random

import pytest

from repro.api import Burst, MessageLoss, Scenario, Session, WorkloadSource
from repro.ccm.component import AttributeSpec, Component
from repro.ccm.container import Container
from repro.ccm.events import (
    AcceptEvent,
    IdleResettingEvent,
    RejectEvent,
    TaskArriveEvent,
    TriggerEvent,
)
from repro.ccm.ports import EventSinkPort, EventSourcePort, Facet, Receptacle
from repro.cpu.processor import Processor
from repro.errors import (
    AttributeConfigError,
    ComponentError,
    PortError,
)
from repro.net.federation import FederatedEventChannel
from repro.net.latency import ConstantDelay
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.workloads.generator import RandomWorkloadParams


class Widget(Component):
    ATTRIBUTES = {
        "rate": AttributeSpec(float, default=1.0, validator=lambda v: v > 0),
        "label": AttributeSpec(str, required=True),
        "count": AttributeSpec(int, default=0, mutable=True),
    }


def make_container(node="n1"):
    sim = Simulator()
    net = Network(sim, random.Random(0), ConstantDelay(0.001))
    fed = FederatedEventChannel(net)
    fed.add_node(node)
    cpu = Processor(sim, node)
    return Container(cpu, fed)


# ----------------------------------------------------------------------
# Attributes
# ----------------------------------------------------------------------
class TestAttributes:
    def test_defaults_applied(self):
        w = Widget("w")
        assert w.get_attribute("rate") == 1.0

    def test_set_and_get(self):
        w = Widget("w")
        w.set_attribute("rate", 2.5)
        assert w.get_attribute("rate") == 2.5

    def test_unknown_attribute_rejected(self):
        w = Widget("w")
        with pytest.raises(AttributeConfigError):
            w.set_attribute("bogus", 1)
        with pytest.raises(AttributeConfigError):
            w.get_attribute("bogus")

    def test_type_checked(self):
        w = Widget("w")
        with pytest.raises(AttributeConfigError):
            w.set_attribute("rate", "fast")

    def test_bool_rejected_where_int_expected(self):
        w = Widget("w")
        with pytest.raises(AttributeConfigError):
            w.set_attribute("count", True)

    def test_validator_enforced(self):
        w = Widget("w")
        with pytest.raises(AttributeConfigError):
            w.set_attribute("rate", -1.0)

    def test_set_configuration_bulk(self):
        w = Widget("w")
        w.set_configuration({"rate": 3.0, "label": "x"})
        assert w.get_attribute("label") == "x"

    def test_required_attribute_enforced_at_activation(self):
        container = make_container()
        w = Widget("w")
        container.install(w)
        with pytest.raises(AttributeConfigError):
            w.activate()

    def test_immutable_after_activation(self):
        container = make_container()
        w = Widget("w")
        w.set_attribute("label", "x")
        container.install(w)
        w.activate()
        with pytest.raises(AttributeConfigError):
            w.set_attribute("rate", 2.0)
        w.set_attribute("count", 5)  # mutable attribute still settable
        assert w.get_attribute("count") == 5

    def test_activate_requires_install(self):
        w = Widget("w")
        with pytest.raises(ComponentError):
            w.activate()

    def test_first_missing_required_attribute_is_named(self):
        class Pair(Component):
            ATTRIBUTES = {
                "first": AttributeSpec(str, required=True),
                "rate": AttributeSpec(float, default=1.0),
                "second": AttributeSpec(str, required=True),
            }

        container = make_container()
        pair = Pair("p")
        container.install(pair)
        with pytest.raises(AttributeConfigError, match="'first'"):
            pair.activate()
        pair.set_attribute("first", "x")
        with pytest.raises(AttributeConfigError, match="'second'"):
            pair.activate()


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------
class TestContainer:
    def test_install_binds_component(self):
        container = make_container()
        w = Widget("w")
        container.install(w)
        assert w.container is container
        assert w.node == "n1"

    @pytest.mark.parametrize("name", ["node", "sim", "processor"])
    def test_context_read_before_install_raises(self, name):
        w = Widget("w")
        with pytest.raises(ComponentError):
            getattr(w, name)
        # Still unbound: the failed read cached nothing.
        with pytest.raises(ComponentError):
            getattr(w, name)
        container = make_container()
        container.install(w)
        assert getattr(w, name) is getattr(container, name)

    @pytest.mark.parametrize(
        "engine", ["middleware", "distributed"], ids=["direct", "distributed"]
    )
    def test_context_equals_container_on_both_deployment_routes(self, engine):
        # The centralized deploy step and the distributed engine's override.
        scenario = Scenario(
            workload=WorkloadSource.random(
                seed=17, params=RandomWorkloadParams(n_processors=3)
            ),
            engine=engine,
            combo="J_J_J" if engine == "middleware" else "J_N_N",
            duration=1.0,
            seed=5,
        )
        system = Session(scenario).deploy()
        components = 0
        for container in system.containers.values():
            for component in container.components:
                components += 1
                assert component.container is container
                assert component.node == container.node
                assert component.sim is container.sim
                assert component.processor is container.processor
        assert components > len(system.containers)

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(
                workload=WorkloadSource.random(
                    seed=17, params=RandomWorkloadParams(n_processors=3)
                ),
                combo="J_J_J",
                duration=10.0,
                seed=5,
                arrival_batching=True,
                disturbances=(Burst(time=4.0, jobs=20, spacing=1e-4),),
            ),
            Scenario(
                workload=WorkloadSource.random(
                    seed=17, params=RandomWorkloadParams(n_processors=3)
                ),
                engine="distributed",
                combo="J_N_N",
                duration=10.0,
                seed=5,
                disturbances=(MessageLoss(probability=0.2, until=10.0),),
            ),
        ],
        ids=["batched", "distributed"],
    )
    def test_no_instance_attribute_is_set_after_construction(self, scenario):
        # CPython shares one attribute-key table among a class's instances
        # and stops adding keys to it once many instances exist: an
        # attribute first set after a deployment's components were built
        # gives every component its own dict (+10 to +14% peak RSS on a
        # deployment of thousands of subtask components).
        session = Session(scenario)
        system = session.deploy()
        containers = system.containers
        context = {"node", "sim", "processor"}
        # Taken before the run: a finished run empties the containers.
        components = [c for ct in containers.values() for c in ct.components]
        session.run()
        assert len(components) > len(containers)
        for component in components:
            fresh = type(component)(component.name, component.env)
            late = set(vars(component)) - set(vars(fresh)) - context
            assert not late, f"{component.name}: set after __init__: {sorted(late)}"

    def test_double_install_rejected(self):
        container = make_container()
        w = Widget("w")
        container.install(w)
        with pytest.raises(ComponentError):
            container.install(w)

    def test_duplicate_name_rejected(self):
        container = make_container()
        container.install(Widget("w"))
        with pytest.raises(ComponentError):
            container.install(Widget("w"))

    def test_lookup(self):
        container = make_container()
        w = container.install(Widget("w"))
        assert container.lookup("w") is w
        with pytest.raises(ComponentError):
            container.lookup("zz")

    def test_activate_all(self):
        container = make_container()
        w = Widget("w")
        w.set_attribute("label", "x")
        container.install(w)
        container.activate_all()
        assert w.activated

    def test_uninstalled_component_accessors_fail(self):
        w = Widget("w")
        with pytest.raises(ComponentError):
            _ = w.node


# ----------------------------------------------------------------------
# Ports
# ----------------------------------------------------------------------
class TestPorts:
    def test_event_source_sink_roundtrip(self):
        container = make_container()
        w = container.install(Widget("w"))
        w.set_attribute("label", "x")
        got = []
        sink = EventSinkPort(w, "in", got.append)
        sink.subscribe("topic")
        source = EventSourcePort(w, "out")
        source.push("n1", "topic", 99)
        assert got == [99]

    def test_uninstalled_source_push_fails(self):
        w = Widget("w")
        source = EventSourcePort(w, "out")
        with pytest.raises(PortError):
            source.push("n1", "t", 1)

    def test_source_built_before_install_fails_after_it(self):
        # A source port holds the container its owner had when it was
        # built (not the owner), so one built too early never pushes.
        container = make_container()
        w = Widget("w")
        source = EventSourcePort(w, "out")
        container.install(w)
        with pytest.raises(
            PortError, match=r"^event source 'out' of 'w': not installed$"
        ):
            source.push("n1", "t", 1)
        with pytest.raises(
            PortError, match=r"^event source 'out' of 'w': not installed$"
        ):
            source.broadcast("t", 1)

    def test_uninstalled_sink_subscribe_fails(self):
        w = Widget("w")
        sink = EventSinkPort(w, "in", lambda p: None)
        with pytest.raises(PortError):
            sink.subscribe("t")

    def test_facet_receptacle(self):
        w = Widget("w")
        target = object()
        facet = Facet(w, "svc", target)
        receptacle = Receptacle(w, "uses_svc")
        assert not receptacle.connected
        receptacle.connect(facet)
        assert receptacle.connected
        assert receptacle() is target

    def test_receptacle_double_connect_rejected(self):
        w = Widget("w")
        receptacle = Receptacle(w, "r")
        receptacle.connect(Facet(w, "f", 1))
        with pytest.raises(PortError):
            receptacle.connect(Facet(w, "f2", 2))

    def test_unconnected_receptacle_deref_fails(self):
        w = Widget("w")
        receptacle = Receptacle(w, "r")
        with pytest.raises(PortError):
            receptacle()


# ----------------------------------------------------------------------
# Event payloads
# ----------------------------------------------------------------------
PAYLOADS = [
    (TaskArriveEvent, dict(job=None, arrival_node="app1")),
    (
        AcceptEvent,
        dict(job=None, assignment={0: "app2"}, arrival_node="app1", release_node="app2"),
    ),
    (RejectEvent, dict(job=None, arrival_node="app1", reason="full")),
    (TriggerEvent, dict(job=None, next_index=1, assignment={0: "app1", 1: "app2"})),
    (IdleResettingEvent, dict(node="app1", entries=(("T", 0, 0),))),
]


class TestPayloads:
    @pytest.mark.parametrize(
        "cls, fields", PAYLOADS, ids=[cls.__name__ for cls, _ in PAYLOADS]
    )
    def test_fields_are_read_only(self, cls, fields):
        payload = cls(**fields)
        for name, value in fields.items():
            assert getattr(payload, name) == value
            with pytest.raises(AttributeError):
                setattr(payload, name, None)

    def test_reallocated(self):
        job = object()
        assert not AcceptEvent(job, {0: "app1"}, "app1", "app1").reallocated
        assert AcceptEvent(job, {0: "app2"}, "app1", "app2").reallocated

    def test_reject_reason_defaults_to_empty(self):
        assert RejectEvent(job=None, arrival_node="app1").reason == ""
