"""Every simulated event and message enters through a public entry point.

The per-layer trace in ``bench_e2e/layer_trace.py`` attributes time by
wrapping the callbacks handed to ``Simulator.schedule_at`` and
``Simulator.schedule_batch`` and by spanning ``Network.send``.  An event
pushed onto the heap some other way, or a message sent around
``Network.send``, would never be wrapped, and its time would be charged
to whichever layer's span happened to be open.  The trace itself only
notices callbacks it cannot attribute, so these tests wrap the same
entry points on a small centralized and a small distributed run and
check that the wrapped dispatches and sends account for every event and
message the run reports.
"""

from collections import Counter

import pytest

from repro.api import Burst, MessageLoss, Scenario, Session, WorkloadSource
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.workloads.generator import RandomWorkloadParams


class _Counted:
    """A callback that counts its calls under ``key``.

    Compares and hashes like the callback it wraps, as the trace's
    wrappers do: ``schedule_batch`` coalesces payloads by callback.
    """

    __slots__ = ("fn", "counts", "key")

    def __init__(self, fn, counts, key):
        self.fn = fn
        self.counts = counts
        self.key = key

    def __call__(self, *args):
        self.counts[self.key] += 1
        return self.fn(*args)

    def __eq__(self, other):
        if isinstance(other, _Counted):
            other = other.fn
        return self.fn == other

    def __hash__(self):
        return hash(self.fn)


def _count_entry_points(patch):
    """Wrap the kernel's and the network's entry points; return the counts."""
    counts = Counter()
    schedule_at = Simulator.schedule_at
    schedule_batch = Simulator.schedule_batch
    send = Network.send

    def counted_schedule_at(sim, time, callback, *args, **kwargs):
        wrapped = _Counted(callback, counts, "dispatches")
        return schedule_at(sim, time, wrapped, *args, **kwargs)

    def counted_schedule_batch(sim, time, callback, payload, **kwargs):
        wrapped = _Counted(callback, counts, "batch_deliveries")
        return schedule_batch(sim, time, wrapped, payload, **kwargs)

    def counted_send(network, *args, **kwargs):
        counts["sends"] += 1
        return send(network, *args, **kwargs)

    patch.setattr(Simulator, "schedule_at", counted_schedule_at)
    patch.setattr(Simulator, "schedule_batch", counted_schedule_batch)
    patch.setattr(Network, "send", counted_send)
    return counts


PARAMS = RandomWorkloadParams(n_periodic=4, n_aperiodic=4, n_processors=3)

#: Per-job AC, IR and LB with a batched burst: every centralized service.
CENTRALIZED = Scenario(
    workload=WorkloadSource.random(seed=17, params=PARAMS),
    combo="J_J_J",
    duration=10.0,
    seed=5,
    arrival_batching=True,
    disturbances=(Burst(time=4.0, jobs=20, spacing=1e-4),),
)

#: Two-phase distributed AC, with dropped messages.
DISTRIBUTED = Scenario(
    workload=WorkloadSource.random(seed=17, params=PARAMS),
    engine="distributed",
    combo="J_N_N",
    duration=10.0,
    seed=5,
    disturbances=(MessageLoss(probability=0.2, until=10.0),),
)

SCENARIOS = pytest.mark.parametrize(
    "scenario", [CENTRALIZED, DISTRIBUTED], ids=["centralized", "distributed"]
)


@SCENARIOS
def test_every_event_and_message_passes_an_entry_point(scenario, monkeypatch):
    counts = _count_entry_points(monkeypatch)
    result = Session(scenario).run()
    assert result.events_executed > 0 and result.messages_sent > 0
    # A batch delivery is itself one wrapped schedule_at dispatch.
    assert counts["dispatches"] == result.events_executed
    assert counts["sends"] == result.messages_sent
    assert (counts["batch_deliveries"] > 0) == scenario.arrival_batching


@SCENARIOS
def test_wrapping_does_not_change_the_run(scenario, monkeypatch):
    plain = Session(scenario).run().to_json()
    _count_entry_points(monkeypatch)
    assert Session(scenario).run().to_json() == plain
