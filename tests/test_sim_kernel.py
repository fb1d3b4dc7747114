"""Unit tests for the discrete-event simulation kernel."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import DEFAULT_PRIORITY, MSEC, USEC, EventHandle, Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(1.5, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(3.25, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [3.25]
    assert sim.now == 3.25


def test_same_time_events_fire_in_priority_then_fifo_order():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(1.0, fired.append, "hi", priority=1)
    sim.schedule(1.0, fired.append, "b")
    sim.run()
    assert fired == ["hi", "a", "b"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, "x")
    sim.run()
    assert sim.now == 5.0 and fired == ["x"]


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    EventHandle.cancel(handle)
    assert EventHandle.cancelled(handle)
    sim.run()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    EventHandle.cancel(handle)
    EventHandle.cancel(handle)
    assert EventHandle.cancelled(handle)
    sim.run()
    assert fired == [] and sim.events_executed == 0
    EventHandle.cancel(handle)  # after the run too
    assert EventHandle.cancelled(handle)


def test_handle_exposes_its_schedule():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    handle = sim.schedule_at(2.5, lambda: None, priority=7)
    # [time, priority, seq, callback, args]
    assert (handle[0], handle[1], handle[2]) == (2.5, 7, 1)
    assert not EventHandle.cancelled(handle)
    EventHandle.cancel(handle)
    assert EventHandle.cancelled(handle)
    assert (handle[0], handle[1], handle[2]) == (2.5, 7, 1)


def test_cancelled_event_never_dispatches_among_live_ones():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(1.0, fired.append, i) for i in range(5)]
    EventHandle.cancel(handles[0])
    EventHandle.cancel(handles[3])
    sim.run()
    assert fired == [1, 2, 4]
    assert sim.events_executed == 3


def test_handle_is_a_plain_list():
    # A handle is its own heap entry: a list subclass would cost a Python
    # constructor call per event, and a Python-level __eq__/__lt__ would
    # run on every sift step instead of the C-level list comparison.
    sim = Simulator()
    for handle in (
        sim.schedule(1.0, print),
        sim.schedule_at(2.0, print),
        sim.schedule_batch(3.0, print, "payload"),
    ):
        assert type(handle) is list


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "in")
    sim.schedule(10.0, fired.append, "out")
    sim.run(until=5.0)
    assert fired == ["in"]
    assert sim.now == 5.0
    assert sim.pending_events == 1


def test_run_until_can_be_resumed():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run(until=5.0)
    sim.run()
    assert fired == ["a", "b"]


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if sim.now < 3.0:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_step_fires_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()


def test_max_events_bounds_dispatch():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(max_events=4)
    assert sim.events_executed == 4


def test_event_budget_stop_never_moves_the_clock_past_a_pending_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.run(until=5.0, max_events=1)
    # The 2.0 event is still due by ``until``: the clock stays at 1.0.
    assert sim.now == pytest.approx(1.0)
    sim.run(until=6.0)
    assert fired == [1.0, 2.0]
    assert sim.now == pytest.approx(6.0)


def test_event_budget_stop_advances_past_cancelled_and_later_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    EventHandle.cancel(sim.schedule(2.0, lambda: None))
    sim.schedule(8.0, lambda: None)
    # Only a cancelled entry and an event after ``until`` remain.
    sim.run(until=5.0, max_events=1)
    assert sim.now == pytest.approx(5.0)


def test_drain_discards_pending():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "x")
    sim.drain()
    sim.run()
    assert fired == []


def test_simulator_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_step_inside_callback_raises_and_keeps_the_clock():
    sim = Simulator()
    errors = []
    seen = []

    def nested():
        try:
            sim.step()
        except SimulationError as exc:
            errors.append(exc)
        seen.append(("nested", sim.now))

    sim.schedule(1.0, nested)
    sim.schedule(2.0, seen.append, "later")
    sim.run()
    # The nested step dispatched nothing: the clock stayed at 1.0 for the
    # rest of the callback, and the later event fired from run()'s loop.
    assert len(errors) == 1
    assert seen == [("nested", 1.0), "later"]
    assert sim.events_executed == 2


def test_negative_max_events_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(max_events=-1)
    assert sim.events_executed == 0 and sim.pending_events == 1
    sim.run(max_events=0)
    assert sim.events_executed == 0
    sim.run()  # the failed call left the simulator usable
    assert sim.events_executed == 1


def test_nan_times_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(math.nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(math.nan, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(math.nan, lambda: None)
    assert sim.pending_events == 0


def test_step_skips_cancelled_events():
    sim = Simulator()
    fired = []
    EventHandle.cancel(sim.schedule(1.0, fired.append, "cancelled"))
    sim.schedule(2.0, fired.append, "kept")
    assert sim.step()
    assert fired == ["kept"]
    assert sim.now == pytest.approx(2.0)
    assert not sim.step()


def test_event_count_tracks_dispatches():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_unit_constants():
    assert USEC == pytest.approx(1e-6)
    assert MSEC == pytest.approx(1e-3)
    assert DEFAULT_PRIORITY == 100


def test_zero_delay_event_fires_at_now():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, fired.append, sim.now))
    sim.run()
    assert fired == [1.0]


# ----------------------------------------------------------------------
# Batched same-timestamp delivery
# ----------------------------------------------------------------------
def test_schedule_batch_coalesces_same_timestamp_payloads():
    sim = Simulator()
    batches = []
    for i in range(4):
        sim.schedule_batch(2.0, batches.append, i)
    sim.schedule_batch(3.0, batches.append, "later")
    sim.run()
    # One delivery per (time, priority, callback), payloads in order.
    assert batches == [[0, 1, 2, 3], ["later"]]
    assert sim.events_executed == 2


def test_schedule_batch_orders_against_plain_events():
    sim = Simulator()
    order = []
    sim.schedule_at(1.0, order.append, "before")
    sim.schedule_batch(1.0, lambda p: order.append(tuple(p)), "x")
    sim.schedule_batch(1.0, lambda p: None, "ignored-other-callback")
    sim.schedule_at(1.0, order.append, "after")
    sim.run()
    # The batch keeps its first payload's heap position.
    assert order == ["before", ("x",), "after"]


def test_schedule_batch_cancel_drops_whole_batch():
    sim = Simulator()
    batches = []
    handle = sim.schedule_batch(1.0, batches.append, "a")
    assert sim.schedule_batch(1.0, batches.append, "b") is handle
    EventHandle.cancel(handle)
    assert EventHandle.cancelled(handle)
    # A payload scheduled after cancellation starts a fresh batch.
    fresh = sim.schedule_batch(1.0, batches.append, "c")
    assert fresh is not handle and not EventHandle.cancelled(fresh)
    assert sim.schedule_batch(1.0, batches.append, "d") is fresh
    sim.run()
    assert batches == [["c", "d"]]
    assert sim.events_executed == 1


def test_schedule_batch_from_inside_callback_starts_fresh_batch():
    sim = Simulator()
    batches = []

    def deliver(payloads):
        batches.append(list(payloads))
        if payloads == ["first"]:
            sim.schedule_batch(sim.now, deliver, "second")

    sim.schedule_batch(1.0, deliver, "first")
    sim.run()
    assert batches == [["first"], ["second"]]


def test_drain_discards_open_batches():
    sim = Simulator()
    batches = []
    sim.schedule_batch(1.0, batches.append, "x")
    sim.drain()
    sim.run()
    assert batches == []
    # The key is free again after the drain.
    sim.schedule_batch(1.0, batches.append, "y")
    sim.run()
    assert batches == [["y"]]
