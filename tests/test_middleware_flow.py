"""Integration tests: end-to-end job flow through the middleware.

These tests use tiny hand-built workloads with the zero-overhead cost
model and a constant network delay so exact timing can be asserted.
"""

import random

import pytest

from repro.ccm.events import TOPIC_TRIGGER
from repro.core.cost_model import CostModel
from repro.core.distributed_ac import DistributedMiddlewareSystem
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo
from repro.errors import ConfigurationError, InvalidStrategyCombination
from repro.net.latency import ConstantDelay
from repro.sched.task import TaskKind
from repro.workloads.generator import RandomWorkloadParams, generate_random_workload
from repro.workloads.model import Workload

from tests.taskutil import make_task

DELAY = 0.001  # constant one-way network delay for exact-timing tests


def build(workload, label, **kwargs):
    kwargs.setdefault("cost_model", CostModel.zero())
    kwargs.setdefault("delay_model", ConstantDelay(DELAY))
    return MiddlewareSystem(workload, StrategyCombo.from_label(label), **kwargs)


def single_task_workload(execs=(0.1,), homes=("app1",), replicas=None, deadline=1.0):
    task = make_task(
        "A1",
        TaskKind.APERIODIC,
        deadline=deadline,
        execs=execs,
        homes=homes,
        replicas=replicas,
    )
    nodes = sorted({n for s in task.subtasks for n in s.eligible})
    return Workload(tasks=(task,), app_nodes=tuple(nodes)), task


class TestSingleJobFlow:
    def test_job_admitted_and_completes(self):
        workload, task = single_task_workload()
        system = build(workload, "J_N_N")
        system.sim.schedule_at(0.0, system._arrive, task, 0, 0.0)
        system.sim.run(until=2.0)
        metrics = system.metrics
        assert metrics.arrived_jobs == 1
        assert metrics.released_jobs == 1
        assert metrics.completed_jobs == 1
        assert metrics.deadline_misses == 0

    def test_response_time_includes_round_trip_and_execution(self):
        workload, task = single_task_workload(execs=(0.1,))
        system = build(workload, "J_N_N")
        system.sim.schedule_at(0.0, system._arrive, task, 0, 0.0)
        system.sim.run(until=2.0)
        # TE -> AC -> TE round trip (2 x DELAY) + execution 0.1.
        response = system.metrics.response_times.mean
        assert response == pytest.approx(2 * DELAY + 0.1, abs=1e-9)

    def test_multi_stage_chain_crosses_processors(self):
        workload, task = single_task_workload(
            execs=(0.05, 0.05, 0.05), homes=("app1", "app2", "app1")
        )
        system = build(workload, "J_N_N")
        system.sim.schedule_at(0.0, system._arrive, task, 0, 0.0)
        system.sim.run(until=2.0)
        assert system.metrics.completed_jobs == 1
        # 2 x admission round trip + 3 x 0.05 exec + 2 trigger hops.
        response = system.metrics.response_times.mean
        assert response == pytest.approx(2 * DELAY + 0.15 + 2 * DELAY, abs=1e-9)

    def test_synthetic_utilization_expires_at_deadline(self):
        workload, task = single_task_workload(deadline=1.0)
        system = build(workload, "J_N_N")
        system.sim.schedule_at(0.0, system._arrive, task, 0, 0.0)
        system.sim.run(until=0.9)
        assert system.ac.ledger.utilization("app1") == pytest.approx(0.1)
        system.sim.run(until=1.5)
        assert system.ac.ledger.utilization("app1") == 0.0

    def test_overloading_jobs_rejected(self):
        # Each job uses 0.5; the second concurrent one must be rejected
        # (f(0.5) = 0.75 fits, f(1.0) = inf does not).
        workload, task = single_task_workload(execs=(0.5,), deadline=1.0)
        system = build(workload, "J_N_N")
        for i in range(3):
            system.sim.schedule_at(0.0, system._arrive, task, i, 0.0)
        system.sim.run(until=2.0)
        assert system.metrics.released_jobs == 1
        assert system.metrics.rejected_jobs == 2

    def test_rejected_jobs_never_execute(self):
        workload, task = single_task_workload(execs=(0.5,), deadline=1.0)
        system = build(workload, "J_N_N")
        for i in range(2):
            system.sim.schedule_at(0.0, system._arrive, task, i, 0.0)
        system.sim.run(until=2.0)
        assert system.metrics.completed_jobs == 1

    def test_admitted_jobs_meet_deadlines_under_preemption(self):
        fast = make_task(
            "FAST", TaskKind.APERIODIC, deadline=0.3, execs=(0.1,), homes=("app1",)
        )
        slow = make_task(
            "SLOW", TaskKind.APERIODIC, deadline=5.0, execs=(0.4,), homes=("app1",)
        )
        workload = Workload(tasks=(fast, slow), app_nodes=("app1",))
        system = build(workload, "J_N_N")
        system.sim.schedule_at(0.0, system._arrive, slow, 0, 0.0)
        system.sim.schedule_at(0.05, system._arrive, fast, 0, 0.05)
        system.sim.run(until=6.0)
        assert system.metrics.completed_jobs == 2
        assert system.metrics.deadline_misses == 0
        # FAST preempts SLOW (EDMS): its response, the shorter of the
        # two, is round trip + 0.1.
        fast_resp = system.metrics.response_times.minimum
        assert fast_resp == pytest.approx(2 * DELAY + 0.1, abs=1e-9)


class TestReallocation:
    def test_lb_reallocates_to_idle_replica(self):
        # app1 is loaded by a resident task; the replicated task should be
        # placed on its app2 duplicate by the LB.
        resident = make_task(
            "R", TaskKind.APERIODIC, deadline=1.0, execs=(0.4,), homes=("app1",)
        )
        moveable = make_task(
            "M",
            TaskKind.APERIODIC,
            deadline=1.0,
            execs=(0.3,),
            homes=("app1",),
            replicas=[("app2",)],
        )
        workload = Workload(tasks=(resident, moveable), app_nodes=("app1", "app2"))
        system = build(workload, "J_N_J")
        system.sim.schedule_at(0.0, system._arrive, resident, 0, 0.0)
        system.sim.schedule_at(0.1, system._arrive, moveable, 0, 0.1)
        system.sim.run(until=2.0)
        assert system.metrics.released_jobs == 2
        # The moveable job must have executed on app2.
        assert system.ac.ledger.utilization("app1") == 0.0  # all expired
        te2 = system.env.task_effectors["app2"]
        assert te2.jobs_released == 1

    def test_no_lb_means_home_assignment(self):
        resident = make_task(
            "R", TaskKind.APERIODIC, deadline=1.0, execs=(0.4,), homes=("app1",)
        )
        moveable = make_task(
            "M",
            TaskKind.APERIODIC,
            deadline=1.0,
            execs=(0.3,),
            homes=("app1",),
            replicas=[("app2",)],
        )
        workload = Workload(tasks=(resident, moveable), app_nodes=("app1", "app2"))
        system = build(workload, "J_N_N")
        system.sim.schedule_at(0.0, system._arrive, resident, 0, 0.0)
        system.sim.schedule_at(0.1, system._arrive, moveable, 0, 0.1)
        system.sim.run(until=2.0)
        te2 = system.env.task_effectors["app2"]
        assert te2.jobs_released == 0


class TestSystemLifecycle:
    def test_invalid_combo_rejected_at_construction(self):
        workload, _ = single_task_workload()
        with pytest.raises(InvalidStrategyCombination):
            MiddlewareSystem(workload, StrategyCombo.from_label("T_J_N"))

    def test_services_configured_from_combo(self, two_node_workload):
        system = build(two_node_workload, "J_J_T")
        assert [
            system.ac.get_attribute(name)
            for name in ("ac_strategy", "ir_strategy", "lb_strategy")
        ] == ["J", "J", "T"]
        assert system.lb is not None
        assert build(two_node_workload, "J_N_N").lb is None

    def test_system_runs_once(self, two_node_workload):
        system = build(two_node_workload, "J_N_N")
        system.run(duration=1.0)
        with pytest.raises(ConfigurationError):
            system.run(duration=1.0)

    def test_results_shape(self, two_node_workload):
        system = build(two_node_workload, "J_T_T")
        results = system.run(duration=5.0)
        assert results.combo_label == "J_T_T"
        assert 0.0 <= results.accepted_utilization_ratio <= 1.0
        assert set(results.cpu_utilization) == {"task_manager", "app1", "app2"}
        assert results.events_executed > 0
        assert results.arrived_jobs == results.metrics.arrived_jobs

    def test_deterministic_given_seed(self, two_node_workload):
        a = build(two_node_workload, "J_J_J", seed=5).run(duration=10.0)
        b = build(two_node_workload, "J_J_J", seed=5).run(duration=10.0)
        assert a.accepted_utilization_ratio == b.accepted_utilization_ratio
        assert a.events_executed == b.events_executed

    def test_different_seeds_differ(self, two_node_workload):
        a = build(two_node_workload, "J_J_J", seed=1).run(duration=20.0)
        b = build(two_node_workload, "J_J_J", seed=2).run(duration=20.0)
        assert a.arrived_jobs != b.arrived_jobs  # different Poisson draws

    def test_run_plan_allows_shared_trace(self, two_node_workload):
        from repro.sim.rng import RngRegistry
        from repro.workloads.arrivals import build_arrival_plan

        plan = build_arrival_plan(
            two_node_workload, 10.0, RngRegistry(3).stream("arrivals")
        )
        a = build(two_node_workload, "J_N_N", seed=1).run_plan(plan)
        b = build(two_node_workload, "J_N_N", seed=2).run_plan(plan)
        assert a.arrived_jobs == b.arrived_jobs


class TestTriggerRoutesPerNode:
    """A deployment binds one Trigger route per application node, on both
    engines, however many replicas each stage has."""

    @pytest.mark.parametrize("replicas", [0, 1, 3])
    @pytest.mark.parametrize("engine", ["centralized", "distributed"])
    def test_one_trigger_route_per_application_node(self, engine, replicas):
        workload = generate_random_workload(
            random.Random(5),
            RandomWorkloadParams(
                n_periodic=4, n_aperiodic=4, n_processors=4,
                replicas_per_subtask=replicas,
            ),
        )
        if engine == "centralized":
            system = MiddlewareSystem(workload, StrategyCombo.from_label("J_J_T"))
            deployed = sum(len(s.eligible) for t in workload.tasks for s in t.subtasks)
        else:
            system = DistributedMiddlewareSystem(workload)
            deployed = sum(t.n_subtasks for t in workload.tasks)
        assert len(system.env.subtask_instances) == deployed
        trigger_routes = [
            (node, topic) for node, topic in system.federation._routes
            if topic.startswith(TOPIC_TRIGGER)
        ]
        assert sorted(trigger_routes) == [
            (node, TOPIC_TRIGGER) for node in sorted(workload.app_nodes)
        ]
