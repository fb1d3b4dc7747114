"""Tests for the trace timeline tooling."""

import pytest

from repro.core.cost_model import CostModel
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo
from repro.net.latency import ConstantDelay
from repro.sched.task import TaskKind
from repro.sim.timeline import build_timeline, format_lanes, format_timeline
from repro.sim.tracing import Tracer
from repro.workloads.model import Workload

from tests.taskutil import make_task, make_two_node_workload

#: Records per category of the traced J_J_T runs below, fixed by their
#: seeds.  Every recording site is guarded by ``tracer.enabled``; a site
#: that stops recording changes these counts.
RECORD_COUNTS = {
    "ac.accept": 10,
    "ac.idle_reset": 14,
    "ir.report": 14,
    "job.complete": 10,
    "subtask.complete": 15,
    "te.arrive": 10,
    "te.release": 10,
}
#: The same run with an extra heavy aperiodic task: one arrival is
#: rejected, which reaches the two reject sites as well.
OVERLOADED_RECORD_COUNTS = {
    "ac.accept": 16,
    "ac.idle_reset": 19,
    "ac.reject": 1,
    "ir.report": 19,
    "job.complete": 16,
    "subtask.complete": 21,
    "te.arrive": 17,
    "te.reject": 1,
    "te.release": 16,
}


def _traced_system(workload):
    return MiddlewareSystem(
        workload,
        StrategyCombo.from_label("J_J_T"),
        seed=3,
        trace=True,
        cost_model=CostModel.zero(),
        delay_model=ConstantDelay(0.001),
    )


@pytest.fixture(scope="module")
def traced_run():
    system = _traced_system(make_two_node_workload())
    results = system.run(duration=5.0)
    return system, results


class TestTimeline:
    def test_tracer_collects_when_enabled(self, traced_run):
        system, _results = traced_run
        assert len(system.tracer) > 0
        categories = system.tracer.categories()
        assert "te.arrive" in categories
        assert "ac.accept" in categories
        assert "job.complete" in categories

    def test_record_counts_per_category(self, traced_run):
        system, _results = traced_run
        assert system.tracer.categories() == RECORD_COUNTS

    def test_reject_sites_record(self):
        base = make_two_node_workload()
        heavy = make_task(
            "H1",
            TaskKind.APERIODIC,
            deadline=0.5,
            execs=(0.2,),
            homes=("app1",),
            replicas=[("app2",)],
        )
        system = _traced_system(
            Workload(tasks=base.tasks + (heavy,), app_nodes=base.app_nodes)
        )
        system.run(duration=5.0)
        assert system.tracer.categories() == OVERLOADED_RECORD_COUNTS

    def test_tracer_silent_when_disabled(self):
        system = MiddlewareSystem(
            make_two_node_workload(),
            StrategyCombo.from_label("J_N_N"),
            seed=3,
            trace=False,
        )
        system.run(duration=2.0)
        assert len(system.tracer) == 0

    def test_timeline_events_sorted(self, traced_run):
        system, _results = traced_run
        timeline = build_timeline(system.tracer)
        times = [e.time for e in timeline.events]
        assert times == sorted(times)

    def test_node_and_category_filters(self, traced_run):
        system, _results = traced_run
        timeline = build_timeline(system.tracer)
        for event in timeline.for_node("app1"):
            assert event.node == "app1"
        for event in timeline.for_category("te.release"):
            assert event.category == "te.release"

    def test_job_history_is_causally_ordered(self, traced_run):
        system, _results = traced_run
        timeline = build_timeline(system.tracer)
        history = timeline.job_history("P1", 0)
        categories = [e.category for e in history]
        assert categories.index("te.arrive") < categories.index("te.release")
        assert categories.index("te.release") < categories.index("job.complete")

    def test_format_timeline_limits_output(self, traced_run):
        system, _results = traced_run
        timeline = build_timeline(system.tracer)
        text = format_timeline(timeline, limit=5)
        assert "more events" in text

    def test_format_lanes_renders_all_nodes(self, traced_run):
        system, _results = traced_run
        timeline = build_timeline(system.tracer)
        text = format_lanes(
            timeline, ["task_manager", "app1", "app2"], 0.0, 2.0, width=50
        )
        assert "task_manager" in text and "app1" in text
        assert "legend" in text

    def test_format_lanes_rejects_bad_window(self):
        timeline = build_timeline(Tracer())
        with pytest.raises(ValueError):
            format_lanes(timeline, ["a"], 1.0, 1.0)

    def test_between_window(self, traced_run):
        system, _results = traced_run
        timeline = build_timeline(system.tracer)
        for event in timeline.between(1.0, 2.0):
            assert 1.0 <= event.time < 2.0
