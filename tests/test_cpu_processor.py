"""Unit tests for the preemptive fixed-priority processor model."""

import math

import pytest

from repro.cpu.processor import Processor
from repro.cpu.thread import DispatchThread, WorkItem
from repro.errors import SimulationError
from repro.sim.kernel import Simulator


def make_cpu():
    sim = Simulator()
    cpu = Processor(sim, "p1")
    return sim, cpu


def test_single_item_completes_after_cost():
    sim, cpu = make_cpu()
    done = []
    t = cpu.new_thread("t", 1.0)
    cpu.submit(t, WorkItem(2.5, lambda _: done.append(sim.now)))
    sim.run()
    assert done == [2.5]


def test_fifo_within_thread():
    sim, cpu = make_cpu()
    done = []
    t = cpu.new_thread("t", 1.0)
    cpu.submit(t, WorkItem(1.0, lambda p: done.append((p, sim.now)), payload="a"))
    cpu.submit(t, WorkItem(1.0, lambda p: done.append((p, sim.now)), payload="b"))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0)]


def test_higher_priority_preempts_lower():
    sim, cpu = make_cpu()
    done = []
    low = cpu.new_thread("low", 10.0)
    high = cpu.new_thread("high", 1.0)
    cpu.submit(low, WorkItem(4.0, lambda _: done.append(("low", sim.now))))
    # After 1s, a high-priority item of cost 2 arrives and preempts.
    sim.schedule(
        1.0, lambda: cpu.submit(high, WorkItem(2.0, lambda _: done.append(("high", sim.now))))
    )
    sim.run()
    assert done == [("high", 3.0), ("low", 6.0)]


def test_equal_priority_does_not_preempt():
    sim, cpu = make_cpu()
    done = []
    a = cpu.new_thread("a", 5.0)
    b = cpu.new_thread("b", 5.0)
    cpu.submit(a, WorkItem(3.0, lambda _: done.append(("a", sim.now))))
    sim.schedule(1.0, lambda: cpu.submit(b, WorkItem(1.0, lambda _: done.append(("b", sim.now)))))
    sim.run()
    assert done == [("a", 3.0), ("b", 4.0)]


def test_equal_priority_ready_threads_run_in_ready_order():
    sim, cpu = make_cpu()
    done = []
    high = cpu.new_thread("high", 1.0)
    cpu.submit(high, WorkItem(2.0, lambda _: done.append(("high", sim.now))))
    # Made ready in the order c, a, b while the urgent thread runs.
    for name in ("c", "a", "b"):
        thread = cpu.new_thread(name, 5.0)
        cpu.submit(thread, WorkItem(1.0, lambda _, n=name: done.append((n, sim.now))))
    sim.run()
    assert done == [("high", 2.0), ("c", 3.0), ("a", 4.0), ("b", 5.0)]


@pytest.mark.parametrize(
    "arrival, expected",
    [
        # b arrives after the preempted a re-entered the ready set.
        (1.5, [("high", 2.0), ("a", 4.0), ("b", 5.0)]),
        # b was ready before a was preempted.
        (0.5, [("high", 2.0), ("b", 3.0), ("a", 5.0)]),
    ],
)
def test_preempted_thread_keeps_its_ready_order(arrival, expected):
    sim, cpu = make_cpu()
    done = []
    a = cpu.new_thread("a", 5.0)
    b = cpu.new_thread("b", 5.0)
    high = cpu.new_thread("high", 1.0)
    cpu.submit(a, WorkItem(3.0, lambda _: done.append(("a", sim.now))))
    sim.schedule(1.0, lambda: cpu.submit(high, WorkItem(1.0, lambda _: done.append(("high", sim.now)))))
    sim.schedule(arrival, lambda: cpu.submit(b, WorkItem(1.0, lambda _: done.append(("b", sim.now)))))
    sim.run()
    assert done == expected


def test_preempted_work_resumes_with_remaining_cost():
    sim, cpu = make_cpu()
    done = []
    low = cpu.new_thread("low", 10.0)
    high = cpu.new_thread("high", 1.0)
    cpu.submit(low, WorkItem(5.0, lambda _: done.append(sim.now)))
    for start in (1.0, 3.0):
        sim.schedule(start, lambda: cpu.submit(high, WorkItem(1.0)))
    sim.run()
    # low runs [0,1], [2,3], [4,7] -> completes at 7 (5s of CPU total)
    assert done == [7.0]


def test_nested_preemption_three_levels():
    sim, cpu = make_cpu()
    done = []
    t1 = cpu.new_thread("t1", 3.0)
    t2 = cpu.new_thread("t2", 2.0)
    t3 = cpu.new_thread("t3", 1.0)
    cpu.submit(t1, WorkItem(10.0, lambda _: done.append(("t1", sim.now))))
    sim.schedule(1.0, lambda: cpu.submit(t2, WorkItem(5.0, lambda _: done.append(("t2", sim.now)))))
    sim.schedule(2.0, lambda: cpu.submit(t3, WorkItem(2.0, lambda _: done.append(("t3", sim.now)))))
    sim.run()
    assert done == [("t3", 4.0), ("t2", 8.0), ("t1", 17.0)]


def test_idle_listener_fires_on_transition():
    sim, cpu = make_cpu()
    idle_times = []
    cpu.on_idle(idle_times.append)
    t = cpu.new_thread("t", 1.0)
    cpu.submit(t, WorkItem(1.0))
    sim.schedule(5.0, lambda: cpu.submit(t, WorkItem(1.0)))
    sim.run()
    assert idle_times == [1.0, 6.0]


def test_idle_listener_not_fired_when_more_work_queued():
    sim, cpu = make_cpu()
    idle_times = []
    cpu.on_idle(idle_times.append)
    t = cpu.new_thread("t", 1.0)
    cpu.submit(t, WorkItem(1.0))
    cpu.submit(t, WorkItem(1.0))
    sim.run()
    assert idle_times == [2.0]


def test_completion_callback_can_submit_more_work():
    sim, cpu = make_cpu()
    done = []
    t = cpu.new_thread("t", 1.0)

    def resubmit(_):
        done.append(sim.now)
        if len(done) < 3:
            cpu.submit(t, WorkItem(1.0, resubmit))

    cpu.submit(t, WorkItem(1.0, resubmit))
    sim.run()
    assert done == [1.0, 2.0, 3.0]


def test_utilization_accounting():
    sim, cpu = make_cpu()
    t = cpu.new_thread("t", 1.0)
    cpu.submit(t, WorkItem(2.0))
    sim.run(until=4.0)
    assert cpu.utilization(4.0) == pytest.approx(0.5)


def test_processor_speed_scales_duration():
    sim = Simulator()
    cpu = Processor(sim, "fast", speed=2.0)
    done = []
    t = cpu.new_thread("t", 1.0)
    cpu.submit(t, WorkItem(4.0, lambda _: done.append(sim.now)))
    sim.run()
    assert done == [2.0]


def test_invalid_speed_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Processor(sim, "bad", speed=0.0)


def test_negative_cost_rejected():
    with pytest.raises(SimulationError):
        WorkItem(-1.0)


def test_zero_cost_item_completes_immediately():
    sim, cpu = make_cpu()
    done = []
    t = cpu.new_thread("t", 1.0)
    cpu.submit(t, WorkItem(0.0, lambda _: done.append(sim.now)))
    sim.run()
    assert done == [0.0]


def test_thread_cannot_join_two_processors():
    sim = Simulator()
    cpu1 = Processor(sim, "p1")
    cpu2 = Processor(sim, "p2")
    t = cpu1.new_thread("t", 1.0)
    with pytest.raises(SimulationError):
        cpu2.add_thread(t)


def test_submit_to_foreign_thread_rejected():
    sim = Simulator()
    cpu1 = Processor(sim, "p1")
    cpu2 = Processor(sim, "p2")
    t = cpu1.new_thread("t", 1.0)
    with pytest.raises(SimulationError):
        cpu2.submit(t, WorkItem(1.0))


def test_infinite_priority_thread_runs_only_when_idle():
    """The idle-detector pattern: a +inf priority thread's work waits for
    every other thread to drain."""
    sim, cpu = make_cpu()
    done = []
    app = cpu.new_thread("app", 1.0)
    idle = cpu.new_thread("idle", math.inf)
    cpu.submit(idle, WorkItem(0.5, lambda _: done.append(("idle", sim.now))))
    cpu.submit(app, WorkItem(2.0, lambda _: done.append(("app", sim.now))))
    sim.run()
    assert done == [("app", 2.0), ("idle", 2.5)]


def test_items_completed_counter():
    sim, cpu = make_cpu()
    t = cpu.new_thread("t", 1.0)
    for _ in range(3):
        cpu.submit(t, WorkItem(1.0))
    sim.run()
    assert cpu.items_completed == 3


def test_work_item_timestamps():
    sim, cpu = make_cpu()
    t = cpu.new_thread("t", 1.0)
    first = WorkItem(2.0)
    second = WorkItem(1.0)
    cpu.submit(t, first)
    cpu.submit(t, second)
    sim.run()
    assert first.enqueued_at == 0.0 and first.started_at == 0.0
    assert second.enqueued_at == 0.0 and second.started_at == 2.0
