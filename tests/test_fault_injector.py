"""Unit tests for the fault injector: which remote sends a fault window
suppresses or slows, and the two counters that record them."""

import pytest

from repro.api import (
    Burst,
    DelaySpike,
    MessageLoss,
    NodeCrash,
    Partition,
    Slowdown,
)
from repro.net.fault import (
    DROP_CRASH,
    DROP_LOSS,
    DROP_PARTITION,
    FaultInjector,
    injector_from_disturbances,
)
from repro.net.latency import ConstantDelay
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


def _injector(seed=5):
    return FaultInjector(RngRegistry(seed))


def _counters(injector):
    return injector.messages_dropped, injector.messages_delay_spiked


def _loss_pattern(injector, source, destination, sends, now=0.5):
    """Whether each of ``sends`` sends on one link is lost."""
    return [
        injector.on_send(source, destination, now)[0] == DROP_LOSS
        for _ in range(sends)
    ]


# ----------------------------------------------------------------------
# No window configured
# ----------------------------------------------------------------------
class TestUnarmed:
    def test_delivers_every_send_and_counts_nothing(self):
        injector = _injector()
        assert not injector.armed
        assert injector.on_send("a", "b", 1.0) == (None, 1.0)
        assert _counters(injector) == (0, 0)

    @pytest.mark.parametrize(
        "add",
        [
            lambda i: i.add_crash("a", 1.0),
            lambda i: i.add_partition(1.0, 2.0, ("a",), ("b",)),
            lambda i: i.add_delay_spike(1.0, 2.0, 3.0),
            lambda i: i.add_message_loss(0.5),
        ],
        ids=["crash", "partition", "delay_spike", "message_loss"],
    )
    def test_each_window_arms_it(self, add):
        injector = _injector()
        add(injector)
        assert injector.armed


# ----------------------------------------------------------------------
# Crash windows
# ----------------------------------------------------------------------
class TestCrash:
    def test_drops_sends_from_and_to_the_crashed_node(self):
        injector = _injector()
        injector.add_crash("b", 1.0, recovery=2.0)
        assert injector.on_send("a", "b", 1.5) == (DROP_CRASH, 1.0)
        assert injector.on_send("b", "a", 1.5) == (DROP_CRASH, 1.0)
        assert injector.on_send("a", "c", 1.5) == (None, 1.0)
        assert _counters(injector) == (2, 0)

    def test_window_starts_at_the_crash_and_ends_at_recovery(self):
        injector = _injector()
        injector.add_crash("b", 1.0, recovery=2.0)
        causes = [injector.on_send("a", "b", t)[0] for t in (0.999, 1.0, 1.999, 2.0)]
        assert causes == [None, DROP_CRASH, DROP_CRASH, None]
        assert injector.node_crashed("b", 1.0)
        assert not injector.node_crashed("b", 2.0)
        assert _counters(injector) == (2, 0)

    def test_crash_without_recovery_never_ends(self):
        injector = _injector()
        injector.add_crash("b", 1.0)
        assert injector.on_send("a", "b", 1e9) == (DROP_CRASH, 1.0)
        assert _counters(injector) == (1, 0)


# ----------------------------------------------------------------------
# Partition windows
# ----------------------------------------------------------------------
class TestPartition:
    def test_drops_sends_across_the_cut_both_ways(self):
        injector = _injector()
        injector.add_partition(1.0, 2.0, ("a", "b"), ("c",))
        assert injector.on_send("a", "c", 1.5) == (DROP_PARTITION, 1.0)
        assert injector.on_send("c", "b", 1.5) == (DROP_PARTITION, 1.0)
        assert _counters(injector) == (2, 0)

    def test_spares_sends_within_a_group_and_outside_both(self):
        injector = _injector()
        injector.add_partition(1.0, 2.0, ("a", "b"), ("c",))
        assert injector.on_send("a", "b", 1.5) == (None, 1.0)
        assert injector.on_send("c", "d", 1.5) == (None, 1.0)
        assert injector.on_send("d", "a", 1.5) == (None, 1.0)
        assert _counters(injector) == (0, 0)

    def test_cut_heals_at_its_heal_time(self):
        injector = _injector()
        injector.add_partition(1.0, 2.0, ("a",), ("c",))
        causes = [injector.on_send("a", "c", t)[0] for t in (0.5, 1.0, 2.0)]
        assert causes == [None, DROP_PARTITION, None]
        assert _counters(injector) == (1, 0)


# ----------------------------------------------------------------------
# Delay spikes
# ----------------------------------------------------------------------
class TestDelaySpike:
    def test_scales_the_delay_inside_its_window_only(self):
        injector = _injector()
        injector.add_delay_spike(1.0, 2.0, 3.0)
        assert injector.on_send("a", "b", 1.5) == (None, 3.0)
        assert injector.on_send("a", "b", 2.0) == (None, 1.0)
        assert injector.on_send("a", "b", 0.5) == (None, 1.0)
        assert _counters(injector) == (0, 1)

    def test_overlapping_spikes_multiply(self):
        injector = _injector()
        injector.add_delay_spike(1.0, 3.0, 2.0)
        injector.add_delay_spike(2.0, 4.0, 5.0)
        factors = [injector.on_send("a", "b", t)[1] for t in (1.5, 2.5, 3.5)]
        assert factors == [2.0, 10.0, 5.0]
        assert _counters(injector) == (0, 3)

    def test_a_dropped_send_is_not_counted_as_spiked(self):
        injector = _injector()
        injector.add_crash("b", 1.0, recovery=2.0)
        injector.add_delay_spike(1.0, 3.0, 4.0)
        assert injector.on_send("a", "b", 1.5) == (DROP_CRASH, 1.0)
        assert injector.on_send("a", "b", 2.5) == (None, 4.0)
        assert _counters(injector) == (1, 1)


# ----------------------------------------------------------------------
# Message loss
# ----------------------------------------------------------------------
class TestMessageLoss:
    def test_certain_loss_drops_every_send_inside_its_window(self):
        injector = _injector()
        injector.add_message_loss(1.0, time=1.0, until=2.0)
        causes = [injector.on_send("a", "b", t)[0] for t in (0.5, 1.0, 1.5, 2.0)]
        assert causes == [None, DROP_LOSS, DROP_LOSS, None]
        assert _counters(injector) == (2, 0)

    def test_same_seed_loses_the_same_sends(self):
        first, second = _injector(seed=9), _injector(seed=9)
        for injector in (first, second):
            injector.add_message_loss(0.5)
        pattern = _loss_pattern(first, "a", "b", 40)
        assert _loss_pattern(second, "a", "b", 40) == pattern
        assert 0 < sum(pattern) < 40
        assert _counters(first) == (sum(pattern), 0)

    def test_each_directed_link_draws_from_its_own_stream(self):
        alone, mixed = _injector(), _injector()
        for injector in (alone, mixed):
            injector.add_message_loss(0.5)
        expected = _loss_pattern(alone, "a", "b", 30)
        interleaved = []
        for _ in range(30):
            mixed.on_send("b", "a", 0.5)
            mixed.on_send("a", "c", 0.5)
            interleaved.extend(_loss_pattern(mixed, "a", "b", 1))
        assert interleaved == expected

    def test_crash_and_partition_drops_take_no_loss_draw(self):
        fresh, faulted = _injector(), _injector()
        for injector in (fresh, faulted):
            injector.add_message_loss(0.5)
        faulted.add_crash("b", 1.0, recovery=2.0)
        faulted.add_partition(2.0, 3.0, ("a",), ("b",))
        for now in (1.5, 2.5):
            assert faulted.on_send("a", "b", now)[0] in (DROP_CRASH, DROP_PARTITION)
        after = _loss_pattern(faulted, "a", "b", 30, now=3.5)
        assert after == _loss_pattern(fresh, "a", "b", 30, now=3.5)
        assert faulted.messages_dropped == 2 + sum(after)


# ----------------------------------------------------------------------
# Through Network.send
# ----------------------------------------------------------------------
class TestNetworkSend:
    @staticmethod
    def _network(injector):
        sim = Simulator()
        network = Network(sim, RngRegistry(1).stream("delay"), ConstantDelay(0.001))
        network.add_node("a")
        network.add_node("b")
        network.install_fault_injector(injector)
        return sim, network

    def test_dropped_send_is_paid_for_but_never_delivered(self):
        injector = _injector()
        injector.add_crash("b", 0.0)
        sim, network = self._network(injector)
        got = []
        network.send("a", "b", "payload", got.append)
        sim.run()
        assert got == []
        assert network.messages_sent == 1
        assert network.delay_stats.count == 0
        assert _counters(injector) == (1, 0)

    def test_spiked_send_arrives_after_the_scaled_delay(self):
        injector = _injector()
        injector.add_delay_spike(0.0, 1.0, 4.0)
        sim, network = self._network(injector)
        got = []
        network.send("a", "b", "payload", lambda p: got.append((sim.now, p)))
        sim.run()
        assert got == [(pytest.approx(0.004), "payload")]
        assert network.delay_stats.mean == pytest.approx(0.004)
        assert _counters(injector) == (0, 1)


# ----------------------------------------------------------------------
# Built from a scenario's disturbances
# ----------------------------------------------------------------------
class TestFromDisturbances:
    def test_workload_disturbances_install_no_injector(self):
        disturbances = (Burst(time=1.0, jobs=3), Slowdown(time=1.0, factor=0.5))
        assert injector_from_disturbances(disturbances, RngRegistry(5)) is None
        assert injector_from_disturbances((), RngRegistry(5)) is None

    @pytest.mark.parametrize(
        "disturbance, send, outcome",
        [
            (NodeCrash(node="b", time=1.0), ("a", "b", 1.5), (DROP_CRASH, 1.0)),
            (
                Partition(time=1.0, heal=2.0, group_a=("a",), group_b=("b",)),
                ("b", "a", 1.5),
                (DROP_PARTITION, 1.0),
            ),
            (DelaySpike(time=1.0, until=2.0, factor=3.0), ("a", "b", 1.5), (None, 3.0)),
            (MessageLoss(probability=1.0, time=1.0), ("a", "b", 1.5), (DROP_LOSS, 1.0)),
        ],
        ids=["node_crash", "partition", "delay_spike", "message_loss"],
    )
    def test_each_fault_disturbance_opens_its_window(self, disturbance, send, outcome):
        injector = injector_from_disturbances((disturbance,), RngRegistry(5))
        assert injector.armed
        assert injector.on_send(*send) == outcome
        source, destination, _now = send
        assert injector.on_send(source, destination, 0.5) == (None, 1.0)
