"""Edge-case tests: event topics, runtime env, drain semantics, reports."""

import pytest

from repro.ccm.events import (
    TOPIC_ACCEPT,
    TOPIC_REJECT,
    TOPIC_TASK_ARRIVE,
    TOPIC_TRIGGER,
    AcceptEvent,
)
from repro.core.cost_model import CostModel
from repro.core.middleware import MiddlewareSystem
from repro.core.runtime import RuntimeEnv
from repro.core.strategies import StrategyCombo
from repro.core.task_effector import TaskEffectorComponent
from repro.errors import SimulationError
from repro.net.latency import ConstantDelay
from repro.sched.task import Job, TaskKind
from repro.workloads.model import Workload

from tests.envutil import make_env
from tests.taskutil import make_task, make_two_node_workload


class TestEventTopics:
    def test_topics_are_distinct_per_target(self):
        # A push addresses (node, topic), so a topic needs no node; one
        # Trigger route per node finds the stage by (task, stage, node).
        assert len({TOPIC_ACCEPT, TOPIC_REJECT, TOPIC_TRIGGER}) == 3

    def test_accept_event_reallocated_flag(self):
        task = make_task("T", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,))
        job = Job(task, 0, 0.0, "app1")
        same = AcceptEvent(job, {0: "app1"}, "app1", "app1")
        moved = AcceptEvent(job, {0: "app2"}, "app1", "app2")
        assert not same.reallocated
        assert moved.reallocated


class TestRuntimeEnv:
    def test_subtask_instance_lookup_error(self):
        # The task effector finds stage 0 as a Trigger route finds its
        # stage, and a stage not deployed on its node fails the same way.
        env, containers = make_env()
        te = TaskEffectorComponent("TE-app1", env)
        te.set_configuration({"processor_id": "app1"})
        containers["app1"].install(te)
        te.activate()
        env.federation.subscribe(env.manager_node, TOPIC_TASK_ARRIVE, lambda e: None)
        task = make_task("ghost", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,))
        job = Job(task, 0, 0.0, "app1")
        te.task_arrived(job)
        env.federation.send(
            env.manager_node, "app1", TOPIC_ACCEPT,
            AcceptEvent(job, {0: "app1"}, "app1", "app1"),
        )
        with pytest.raises(
            SimulationError,
            match="task 'ghost' stage 0 is not deployed on node 'app1'",
        ):
            env.sim.run()

    def test_cost_rng_is_stable_stream(self):
        env, _containers = make_env(seed=5)
        first = env.cost_rng
        assert env.cost_rng is first


class TestDrainSemantics:
    def build(self, **kwargs):
        kwargs.setdefault("cost_model", CostModel.zero())
        kwargs.setdefault("delay_model", ConstantDelay(0.001))
        return MiddlewareSystem(
            make_two_node_workload(), StrategyCombo.from_label("J_N_N"), **kwargs
        )

    def test_drain_lets_tail_jobs_complete(self):
        results = self.build(seed=1).run(duration=5.0, drain=True)
        assert results.metrics.completed_jobs == results.metrics.released_jobs

    def test_no_drain_may_leave_jobs_running(self):
        results = self.build(seed=1).run(duration=5.0, drain=False)
        assert results.metrics.completed_jobs <= results.metrics.released_jobs

    def test_drain_extends_duration_by_max_deadline(self):
        results = self.build(seed=1).run(duration=5.0, drain=True)
        # max deadline in the fixture workload is 1.0
        assert results.duration == pytest.approx(6.0)


class TestAcCachingWithPerTaskLb:
    def test_ac_per_job_lb_per_task_caches_assignment_not_decision(self):
        """AC=J + LB=T: every job is re-tested but the periodic task's
        placement is computed once and reused."""
        task = make_task(
            "P",
            TaskKind.PERIODIC,
            deadline=1.0,
            execs=(0.2,),
            homes=("app1",),
            replicas=[("app2",)],
        )
        workload = Workload(tasks=(task,), app_nodes=("app1", "app2"))
        system = MiddlewareSystem(
            workload,
            StrategyCombo.from_label("J_N_T"),
            cost_model=CostModel.zero(),
            delay_model=ConstantDelay(0.001),
        )
        system.run(duration=5.0, drain=False)
        # Tested every job...
        assert system.ac.admitted_jobs >= 4
        # ...but the LB computed the plan only once.
        assert system.lb.location_calls == 1

    def test_aperiodic_located_every_arrival_even_with_lb_per_task(self):
        task = make_task(
            "A",
            TaskKind.APERIODIC,
            deadline=1.0,
            execs=(0.1,),
            homes=("app1",),
            replicas=[("app2",)],
        )
        workload = Workload(tasks=(task,), app_nodes=("app1", "app2"))
        system = MiddlewareSystem(
            workload,
            StrategyCombo.from_label("J_N_T"),
            cost_model=CostModel.zero(),
            delay_model=ConstantDelay(0.001),
            seed=4,
            aperiodic_interarrival_factor=1.0,
        )
        results = system.run(duration=20.0)
        # Each aperiodic job is an independent single-release task: LB is
        # consulted for every admitted arrival.
        assert system.lb.location_calls == system.ac.admitted_jobs

