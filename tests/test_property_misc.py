"""Property-based tests for the kernel, strategies, workloads in scenario
JSON and arrivals."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario, WorkloadSource
from repro.core.strategies import (
    ACStrategy,
    IRStrategy,
    LBStrategy,
    StrategyCombo,
)
from repro.sched.edms import assign_priorities
from repro.sched.task import SubtaskSpec, TaskKind, TaskSpec
from repro.sim.kernel import Simulator
from repro.workloads.arrivals import build_arrival_plan
from repro.workloads.generator import generate_random_workload
from repro.workloads.model import Workload


# ----------------------------------------------------------------------
# Kernel ordering
# ----------------------------------------------------------------------
class TestKernelProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=50,
        )
    )
    def test_dispatch_order_is_time_then_priority_then_fifo(self, entries):
        sim = Simulator()
        fired = []
        for i, (t, prio) in enumerate(entries):
            sim.schedule_at(
                t, lambda t=t, prio=prio, i=i: fired.append((t, prio, i)),
                priority=prio,
            )
        sim.run()
        assert fired == sorted(fired)

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)))
    def test_clock_is_monotone(self, times):
        sim = Simulator()
        observed = []
        for t in times:
            sim.schedule_at(t, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
class TestStrategyProperties:
    @given(
        st.sampled_from(list(ACStrategy)),
        st.sampled_from(list(IRStrategy)),
        st.sampled_from(list(LBStrategy)),
    )
    def test_label_roundtrip(self, ac, ir, lb):
        combo = StrategyCombo(ac, ir, lb)
        assert StrategyCombo.from_label(combo.label) == combo

    @given(
        st.sampled_from(list(ACStrategy)),
        st.sampled_from(list(IRStrategy)),
        st.sampled_from(list(LBStrategy)),
    )
    def test_validity_rule(self, ac, ir, lb):
        combo = StrategyCombo(ac, ir, lb)
        expected = not (ac is ACStrategy.PER_TASK and ir is IRStrategy.PER_JOB)
        assert combo.is_valid == expected


# ----------------------------------------------------------------------
# Workload round-trips through scenario JSON
# ----------------------------------------------------------------------
node_names = st.sampled_from(["app1", "app2", "app3"])


@st.composite
def workloads(draw):
    n_tasks = draw(st.integers(min_value=1, max_value=4))
    tasks = []
    for i in range(n_tasks):
        kind = draw(st.sampled_from(list(TaskKind)))
        deadline = draw(st.floats(min_value=0.5, max_value=10.0))
        n_sub = draw(st.integers(min_value=1, max_value=3))
        subtasks = []
        for j in range(n_sub):
            home = draw(node_names)
            replica = draw(st.sampled_from([(), tuple({n for n in ["app1", "app2", "app3"] if n != home})[:1]]))
            subtasks.append(
                SubtaskSpec(
                    index=j,
                    execution_time=draw(
                        st.floats(min_value=0.01, max_value=deadline / (n_sub * 2))
                    ),
                    home=home,
                    replicas=replica,
                )
            )
        tasks.append(
            TaskSpec(
                task_id=f"T{i}",
                kind=kind,
                deadline=deadline,
                subtasks=tuple(subtasks),
                period=deadline if kind is TaskKind.PERIODIC else None,
                phase=draw(st.floats(min_value=0.0, max_value=1.0)),
            )
        )
    return Workload(tasks=tuple(tasks), app_nodes=("app1", "app2", "app3"))


class TestSpecProperties:
    @settings(max_examples=40)
    @given(workloads())
    def test_json_roundtrip(self, workload):
        scenario = Scenario(workload=WorkloadSource.explicit(workload))
        restored = Scenario.from_json_str(scenario.to_json_str())
        assert restored == scenario
        assert restored.workload.materialize() == workload

    @settings(max_examples=40)
    @given(workloads())
    def test_edms_priorities_respect_deadlines(self, workload):
        levels = assign_priorities(workload.tasks)
        tasks = {t.task_id: t for t in workload.tasks}
        ordered = sorted(levels, key=levels.get)
        deadlines = [tasks[tid].deadline for tid in ordered]
        assert deadlines == sorted(deadlines)


# ----------------------------------------------------------------------
# Arrival plans
# ----------------------------------------------------------------------
class TestArrivalProperties:
    @settings(max_examples=30)
    @given(workloads(), st.integers(min_value=0, max_value=1000))
    def test_arrivals_within_horizon_and_sorted(self, workload, seed):
        plan = build_arrival_plan(workload, 50.0, random.Random(seed))
        for task_id, times in plan.times.items():
            assert list(times) == sorted(times)
            assert all(0 <= t < 50.0 for t in times)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_generator_always_calibrated(self, seed):
        workload = generate_random_workload(random.Random(seed))
        for node, util in workload.static_utilization().items():
            assert abs(util - 0.5) < 1e-9

    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_generator_tasks_always_feasible(self, seed):
        workload = generate_random_workload(random.Random(seed))
        for task in workload.tasks:
            total = sum(s.execution_time for s in task.subtasks)
            assert total <= task.deadline
