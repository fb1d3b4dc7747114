"""Unit tests for latency models, the network, and event channels."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.channel import LocalEventChannel
from repro.net.federation import FederatedEventChannel
from repro.net.latency import (
    ConstantDelay,
    NormalDelay,
    TriangularDelay,
    UniformDelay,
    paper_calibrated_delay,
)
from repro.net.network import Network
from repro.sim.kernel import USEC, Simulator


# ----------------------------------------------------------------------
# Latency models
# ----------------------------------------------------------------------
class TestDelayModels:
    def test_constant(self, rng):
        model = ConstantDelay(0.5)
        assert model.sample(rng) == 0.5
        assert model.mean() == 0.5

    def test_constant_rejects_negative(self):
        with pytest.raises(SimulationError):
            ConstantDelay(-1.0)

    def test_uniform_within_bounds(self, rng):
        model = UniformDelay(0.1, 0.2)
        for _ in range(100):
            assert 0.1 <= model.sample(rng) <= 0.2
        assert model.mean() == pytest.approx(0.15)

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(SimulationError):
            UniformDelay(0.2, 0.1)

    def test_triangular_within_bounds(self, rng):
        model = TriangularDelay(1.0, 2.0, 3.0)
        for _ in range(100):
            assert 1.0 <= model.sample(rng) <= 3.0
        assert model.mean() == pytest.approx(2.0)

    @given(
        bounds=st.lists(
            st.floats(min_value=0.0, max_value=1e-2), min_size=3, max_size=3
        ).map(sorted),
        degenerate=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @example(bounds=[1e-3, 1e-3, 1e-3], degenerate=False, seed=0)
    # Zero spans of signed zeros: the stdlib returns ``low``, sign and all.
    @example(bounds=[-0.0, -0.0, -0.0], degenerate=False, seed=0)
    @example(bounds=[0.0, 0.0, -0.0], degenerate=False, seed=0)
    # An infinite span is not a zero one: the stdlib returns NaN.
    @example(bounds=[math.inf] * 3, degenerate=False, seed=0)
    @settings(max_examples=400, deadline=None)
    def test_triangular_is_stdlib_triangular_bit_for_bit(
        self, bounds, degenerate, seed
    ):
        """The precomputed draw equals ``random.triangular`` bit for bit,
        also for ``low == mode == high``, and takes exactly its one draw."""
        low, mode, high = (bounds[1],) * 3 if degenerate else bounds
        model = TriangularDelay(low, mode, high)
        drawn, oracle = random.Random(seed), random.Random(seed)
        sample = model.sample(drawn)
        assert sample.hex() == oracle.triangular(low, high, mode).hex()
        assert drawn.random() == oracle.random()

    def test_triangular_parameters_are_read_only(self):
        model = TriangularDelay(1.0, 2.0, 3.0)
        for name in ("low", "mode", "high"):
            with pytest.raises(AttributeError):
                setattr(model, name, 0.5)
        assert (model.low, model.mode, model.high) == (1.0, 2.0, 3.0)
        assert model == TriangularDelay(1.0, 2.0, 3.0)
        assert model != TriangularDelay(1.0, 2.0, 4.0)

    def test_triangular_rejects_bad_order(self):
        with pytest.raises(SimulationError):
            TriangularDelay(2.0, 1.0, 3.0)

    def test_normal_truncates_at_floor(self):
        model = NormalDelay(0.0, 1.0, floor=0.5)
        r = random.Random(0)
        assert all(model.sample(r) >= 0.5 for _ in range(50))

    def test_paper_calibration_mean(self, rng):
        model = paper_calibrated_delay()
        assert model.mean() == pytest.approx(322 * USEC, rel=1e-6)
        samples = [model.sample(rng) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(322 * USEC, rel=0.02)
        assert max(samples) <= 361 * USEC


# ----------------------------------------------------------------------
# Network
# ----------------------------------------------------------------------
class TestNetwork:
    def make(self, delay=None):
        sim = Simulator()
        net = Network(sim, random.Random(1), delay or ConstantDelay(0.001))
        net.add_node("a")
        net.add_node("b")
        return sim, net

    def test_delivery_after_delay(self):
        sim, net = self.make()
        got = []
        net.send("a", "b", "payload", lambda p: got.append((sim.now, p)))
        sim.run()
        assert got == [(0.001, "payload")]

    def test_local_send_is_refused(self):
        sim, net = self.make()
        got = []
        with pytest.raises(SimulationError, match="'a' cannot send a message to itself"):
            net.send("a", "a", 1, got.append)
        sim.run()
        assert got == []

    def test_refused_local_send_leaves_no_trace(self):
        sim, net = self.make()
        with pytest.raises(SimulationError):
            net.send("a", "a", 1, lambda p: None)
        assert net.messages_sent == 0
        assert net.delay_stats.count == 0
        assert sim.pending_events == 0

    def test_remote_delay_recorded(self):
        sim, net = self.make()
        net.send("a", "b", 1, lambda p: None)
        sim.run()
        assert net.delay_stats.count == 1
        assert net.delay_stats.mean == pytest.approx(0.001)

    def test_unknown_node_rejected(self):
        _sim, net = self.make()
        with pytest.raises(SimulationError):
            net.send("a", "zz", 1, lambda p: None)

    def test_duplicate_node_rejected(self):
        _sim, net = self.make()
        with pytest.raises(SimulationError):
            net.add_node("a")

    def test_link_override(self):
        sim, net = self.make()
        net.set_link_delay("a", "b", ConstantDelay(0.5))
        got = []
        net.send("a", "b", 1, lambda p: got.append(sim.now))
        net.send("b", "a", 1, lambda p: got.append(sim.now))
        sim.run()
        assert got == [0.001, 0.5]

    def test_messages_sent_counter(self):
        sim, net = self.make()
        for _ in range(3):
            net.send("a", "b", 1, lambda p: None)
        assert net.messages_sent == 3


# ----------------------------------------------------------------------
# Local event channel
# ----------------------------------------------------------------------
class TestLocalEventChannel:
    def test_subscribe_and_push(self):
        ch = LocalEventChannel("n")
        got = []
        ch.subscribe("t", got.append)
        assert ch.push("t", 42) == 1
        assert got == [42]

    def test_push_without_subscribers(self):
        ch = LocalEventChannel("n")
        assert ch.push("t", 1) == 0

    def test_multiple_subscribers_all_notified(self):
        ch = LocalEventChannel("n")
        a, b = [], []
        ch.subscribe("t", a.append)
        ch.subscribe("t", b.append)
        ch.push("t", 1)
        assert a == [1] and b == [1]

    def test_topics_are_isolated(self):
        ch = LocalEventChannel("n")
        got = []
        ch.subscribe("t1", got.append)
        ch.push("t2", 1)
        assert got == []

    def test_subscribe_during_push_starts_with_the_next_push(self):
        ch = LocalEventChannel("n")
        got = []

        def late(payload):
            got.append(("late", payload))

        def first(payload):
            got.append(("first", payload))
            if payload == 1:
                ch.subscribe("t", late)

        ch.subscribe("t", first)
        assert ch.push("t", 1) == 1
        assert ch.push("t", 2) == 2
        assert got == [("first", 1), ("first", 2), ("late", 2)]


# ----------------------------------------------------------------------
# Federated event channel
# ----------------------------------------------------------------------
class TestFederation:
    def make(self):
        sim = Simulator()
        net = Network(sim, random.Random(1), ConstantDelay(0.01))
        fed = FederatedEventChannel(net)
        fed.add_node("a")
        fed.add_node("b")
        fed.add_node("c")
        return sim, fed

    def test_local_send_is_synchronous(self):
        sim, fed = self.make()
        payload = object()
        got = []
        fed.subscribe("a", "t", lambda p: got.append((sim.now, p)))
        fed.send("a", "a", "t", payload)
        # ``object()`` compares by identity: the handler got this payload.
        assert got == [(0.0, payload)]
        # The handler ran inside the send: nothing scheduled, nothing sent.
        assert sim.pending_events == 0
        assert fed.network.messages_sent == 0

    def test_remote_send_incurs_one_hop(self):
        sim, fed = self.make()
        got = []
        fed.subscribe("b", "t", lambda p: got.append(sim.now))
        fed.send("a", "b", "t", 1)
        sim.run()
        assert got == [0.01]

    def test_send_targets_only_destination(self):
        sim, fed = self.make()
        got_b, got_c = [], []
        fed.subscribe("b", "t", got_b.append)
        fed.subscribe("c", "t", got_c.append)
        fed.send("a", "b", "t", "x")
        sim.run()
        assert got_b == ["x"] and got_c == []

    def test_publish_reaches_all_nodes(self):
        sim, fed = self.make()
        got = []
        for node in ("a", "b", "c"):
            fed.subscribe(node, "t", lambda p, n=node: got.append(n))
        fed.publish("a", "t", 1)
        sim.run()
        assert sorted(got) == ["a", "b", "c"]

    def test_publish_skips_nodes_without_subscribers(self):
        sim, fed = self.make()
        fed.subscribe("b", "t", lambda p: None)
        fed.publish("a", "t", 1)
        assert fed.network.messages_sent == 1

    def test_send_and_publish_hand_the_network_the_subscribed_handler(
        self, monkeypatch
    ):
        sim, fed = self.make()
        handed = []
        send = fed.network.send

        def spy(source, destination, payload, on_deliver):
            handed.append(on_deliver)
            return send(source, destination, payload, on_deliver)

        monkeypatch.setattr(fed.network, "send", spy)
        got = []
        fed.subscribe("b", "t", got.append)
        fed.send("a", "b", "t", "p2p")
        fed.publish("a", "t", "all")
        sim.run()
        assert got == ["p2p", "all"]
        # The route is the consumer itself: one hop, no channel in between.
        assert handed == [got.append] * 2

    def test_remote_send_fires_after_the_sampled_delay_at_delivery_priority(self):
        sim = Simulator()
        model = UniformDelay(0.001, 0.002)
        net = Network(sim, random.Random(7), model)
        fed = FederatedEventChannel(net)
        fed.add_node("a")
        fed.add_node("b")
        delay = model.sample(random.Random(7))
        at = 0.25 + delay
        order = []
        fed.subscribe("b", "t", lambda p: order.append(("delivery", p, sim.now)))
        # At the same instant, priority 74 and an earlier-scheduled 75 fire
        # before the delivery and 76 after it: the delivery runs at 75.
        for priority in (74, 75, 76):
            sim.schedule_at(at, order.append, (priority, None, at), priority=priority)
        sim.schedule_at(0.25, fed.send, "a", "b", "t", "x")
        sim.run()
        assert order == [
            (74, None, at), (75, None, at), ("delivery", "x", at), (76, None, at)
        ]
        assert net.delay_stats.count == 1
        assert net.delay_stats.mean == delay

    @pytest.mark.parametrize("source", ["a", "b"], ids=["local", "remote"])
    def test_send_without_subscriber_raises(self, source):
        sim, fed = self.make()
        fed.subscribe("b", "other", lambda p: None)
        fed.subscribe("c", "t", lambda p: None)
        with pytest.raises(SimulationError, match="'t'.*'a'"):
            fed.send(source, "a", "t", 1)
        assert fed.network.messages_sent == 0
        assert sim.pending_events == 0

    @pytest.mark.parametrize("source", ["b", "a"], ids=["local", "remote"])
    def test_several_subscribers_are_reached_in_registration_order(self, source):
        sim, fed = self.make()
        got = []
        for name in ("first", "second", "third"):
            fed.subscribe("b", "t", lambda p, n=name: got.append((n, p)))
        fed.send(source, "b", "t", 1)
        sim.run()
        assert got == [("first", 1), ("second", 1), ("third", 1)]
        assert fed.network.messages_sent == (source != "b")

    def test_unknown_node_rejected(self):
        _sim, fed = self.make()
        with pytest.raises(SimulationError):
            fed.send("a", "zz", "t", 1)

    def test_duplicate_federation_rejected(self):
        _sim, fed = self.make()
        with pytest.raises(SimulationError):
            fed.add_node("a")
