"""Component-level unit tests: each service component in isolation."""

import math

import pytest

from repro.ccm.events import (
    AcceptEvent,
    IdleResettingEvent,
    TOPIC_IDLE_RESETTING,
    TOPIC_TASK_ARRIVE,
    TaskArriveEvent,
    accept_topic,
    reject_topic,
)
from repro.core.admission_controller import AUB_REJECT, AdmissionControllerComponent
from repro.core.idle_resetter import IdleResetterComponent
from repro.core.load_balancer import LoadBalancerComponent
from repro.core.subtask import FISubtaskComponent, LastSubtaskComponent
from repro.core.task_effector import TaskEffectorComponent
from repro.errors import AttributeConfigError, ComponentError
from repro.sched.aub import RESERVED
from repro.sched.task import Job, TaskKind

from tests.envutil import make_env
from tests.taskutil import make_task


def install_ac(env, containers, lb=False):
    ac = AdmissionControllerComponent("Central-AC", env)
    combo = env.combo
    ac.set_configuration(
        {
            "ac_strategy": combo.ac.value,
            "ir_strategy": combo.ir.value,
            "lb_strategy": combo.lb.value,
        }
    )
    containers[env.manager_node].install(ac)
    lb_component = None
    if lb:
        lb_component = LoadBalancerComponent("Central-LB", env)
        containers[env.manager_node].install(lb_component)
        lb_component.connect_admission_state(ac.provide_state_facet())
        ac.connect_locator(lb_component.provide_location_facet())
    ac.activate()
    if lb_component is not None:
        lb_component.activate()
    return ac, lb_component


def install_te(env, containers, node="app1", mode="per_job"):
    te = TaskEffectorComponent(f"TE-{node}", env)
    te.set_configuration({"processor_id": node, "release_mode": mode})
    containers[node].install(te)
    te.activate()
    return te


def install_ir(env, containers, node="app1", strategy="J"):
    ir = IdleResetterComponent(f"IR-{node}", env)
    ir.set_configuration({"processor_id": node, "strategy": strategy})
    containers[node].install(ir)
    ir.activate()
    return ir


def install_subtask(env, containers, task, index, node, is_last, ir=None):
    cls = LastSubtaskComponent if is_last else FISubtaskComponent
    comp = cls(f"{task.task_id}.s{index}@{node}", env)
    comp.set_configuration(
        {
            "task_id": task.task_id,
            "subtask_index": index,
            "execution_time": task.subtasks[index].execution_time,
            "priority": task.deadline,
            "ir_mode": env.combo.ir.value,
        }
    )
    containers[node].install(comp)
    if ir is not None:
        comp.connect_ir(ir.provide_complete_facet())
    comp.activate()
    return comp


# ----------------------------------------------------------------------
# Task Effector
# ----------------------------------------------------------------------
class TestTaskEffector:
    def test_arrival_pushes_task_arrive_event(self):
        env, containers = make_env()
        te = install_te(env, containers)
        seen = []
        env.federation.subscribe(env.manager_node, TOPIC_TASK_ARRIVE, seen.append)
        task = make_task("A", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,))
        job = Job(task, 0, 0.0, "app1")
        te.task_arrived(job)
        env.sim.run()
        assert len(seen) == 1
        assert isinstance(seen[0], TaskArriveEvent)
        assert seen[0].arrival_node == "app1"
        assert job.key in te.waiting

    def test_processor_id_mismatch_caught_at_activation(self):
        env, containers = make_env()
        te = TaskEffectorComponent("TE-bad", env)
        te.set_configuration({"processor_id": "app2"})
        containers["app1"].install(te)
        with pytest.raises(ComponentError):
            te.activate()

    def test_invalid_release_mode_rejected(self):
        env, _ = make_env()
        te = TaskEffectorComponent("TE-x", env)
        with pytest.raises(AttributeConfigError):
            te.set_attribute("release_mode", "sometimes")

    def test_accept_releases_held_job(self):
        env, containers = make_env()
        te = install_te(env, containers)
        task = make_task("A", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,))
        install_subtask(env, containers, task, 0, "app1", is_last=True)
        job = Job(task, 0, 0.0, "app1")
        te.task_arrived(job)
        env.federation.send(
            env.manager_node,
            "app1",
            accept_topic("app1"),
            AcceptEvent(job, {0: "app1"}, "app1", "app1"),
        )
        env.sim.run()
        assert te.jobs_released == 1
        assert job.key not in te.waiting
        assert job.completed_at is not None


# ----------------------------------------------------------------------
# Admission Controller
# ----------------------------------------------------------------------
class TestAdmissionController:
    def drive(self, env, ac, *jobs):
        for job in jobs:
            env.federation.send(
                job.arrival_node,
                env.manager_node,
                TOPIC_TASK_ARRIVE,
                TaskArriveEvent(job=job, arrival_node=job.arrival_node),
            )
        env.sim.run()

    def test_admits_and_reserves_contributions(self):
        env, containers = make_env(combo_label="J_N_N")
        ac, _ = install_ac(env, containers)
        te = install_te(env, containers)
        task = make_task("A", TaskKind.APERIODIC, deadline=1.0, execs=(0.2,))
        install_subtask(env, containers, task, 0, "app1", is_last=True)
        job = Job(task, 0, 0.0, "app1")
        te.waiting[job.key] = job
        self.drive(env, ac, job)
        assert ac.admitted_jobs == 1
        # After the run the deadline passed and the contribution expired.
        assert ac.ledger.utilization("app1") == 0.0

    def test_reject_event_reaches_task_effector(self):
        env, containers = make_env(combo_label="J_N_N")
        ac, _ = install_ac(env, containers)
        te = install_te(env, containers)
        task = make_task("A", TaskKind.APERIODIC, deadline=1.0, execs=(0.5,))
        install_subtask(env, containers, task, 0, "app1", is_last=True)
        jobs = [Job(task, i, 0.0, "app1") for i in range(2)]
        for job in jobs:
            te.waiting[job.key] = job
        self.drive(env, ac, *jobs)
        assert ac.admitted_jobs == 1
        assert ac.rejected_jobs == 1
        assert te.jobs_rejected == 1

    def test_invalid_strategy_combination_refused_at_activation(self):
        env, containers = make_env()
        ac = AdmissionControllerComponent("AC", env)
        ac.set_configuration(
            {"ac_strategy": "T", "ir_strategy": "J", "lb_strategy": "N"}
        )
        containers[env.manager_node].install(ac)
        from repro.errors import InvalidStrategyCombination

        with pytest.raises(InvalidStrategyCombination):
            ac.activate()

    def test_lb_strategy_without_lb_connection_refused(self):
        env, containers = make_env()
        ac = AdmissionControllerComponent("AC", env)
        ac.set_configuration(
            {"ac_strategy": "J", "ir_strategy": "N", "lb_strategy": "T"}
        )
        containers[env.manager_node].install(ac)
        with pytest.raises(ComponentError):
            ac.activate()

    def test_idle_reset_event_removes_contribution(self):
        env, containers = make_env(combo_label="J_J_N")
        ac, _ = install_ac(env, containers)
        ac.ledger.add("app1", ("T", 0, 0), 0.3)
        env.federation.send(
            "app1",
            env.manager_node,
            TOPIC_IDLE_RESETTING,
            IdleResettingEvent(node="app1", entries=(("T", 0, 0),)),
        )
        env.sim.run()
        assert ac.ledger.utilization("app1") == 0.0
        assert ac.idle_resets_applied == 1

    def test_idle_reset_for_absent_key_is_noop(self):
        env, containers = make_env(combo_label="J_J_N")
        ac, _ = install_ac(env, containers)
        env.federation.send(
            "app1",
            env.manager_node,
            TOPIC_IDLE_RESETTING,
            IdleResettingEvent(node="app1", entries=(("T", 9, 9),)),
        )
        env.sim.run()
        assert ac.idle_resets_applied == 0


# ----------------------------------------------------------------------
# Load Balancer
# ----------------------------------------------------------------------
class TestLoadBalancer:
    """The LB only plans; the AC tests every plan once (``location`` never
    reads the analyzer)."""

    def test_location_picks_lowest_utilization(self):
        env, containers = make_env(combo_label="J_N_J")
        ac, lb = install_ac(env, containers, lb=True)
        ac.ledger.add("app1", ("X", 0, 0), 0.4)
        task = make_task(
            "A", TaskKind.APERIODIC, deadline=1.0, execs=(0.2,),
            homes=("app1",), replicas=[("app2",)],
        )
        job = Job(task, 0, 0.0, "app1")
        assert lb.location(job, ac.ledger) == {0: "app2"}
        assert ac.analyzer.tests_performed == 0

    def test_inadmissible_plan_rejected_by_ac_with_aub_reason(self):
        env, containers = make_env(combo_label="J_N_J")
        ac, lb = install_ac(env, containers, lb=True)
        ac.ledger.add("app1", ("X", 0, 0), 0.9)
        ac.ledger.add("app2", ("Y", 0, 0), 0.9)
        task = make_task(
            "A", TaskKind.APERIODIC, deadline=1.0, execs=(0.3,),
            homes=("app1",), replicas=[("app2",)],
        )
        job = Job(task, 0, 0.0, "app1")
        # The LB plans whether or not the plan is admissible...
        assert lb.location(job, ac.ledger) == {0: "app1"}
        rejects = []
        env.federation.subscribe("app1", reject_topic("app1"), rejects.append)
        env.federation.send(
            "app1",
            env.manager_node,
            TOPIC_TASK_ARRIVE,
            TaskArriveEvent(job=job, arrival_node="app1"),
        )
        env.sim.run()
        # ...and the AC's one test of it rejects the arrival.
        assert ac.rejected_jobs == 1
        assert [event.reason for event in rejects] == [AUB_REJECT]
        assert ac.analyzer.tests_performed == 1
        assert lb.location_calls == 2

    def test_chain_spreads_across_processors(self):
        env, containers = make_env(combo_label="J_N_J")
        ac, lb = install_ac(env, containers, lb=True)
        task = make_task(
            "A", TaskKind.APERIODIC, deadline=1.0, execs=(0.2, 0.2),
            homes=("app1", "app1"), replicas=[("app2",), ("app2",)],
        )
        job = Job(task, 0, 0.0, "app1")
        assignment = lb.location(job, ac.ledger)
        # Greedy: stage 0 -> app1 (tie broken by name), stage 1 -> app2.
        assert sorted(assignment.values()) == ["app1", "app2"]

    def test_location_for_reserved_keeps_good_placement(self):
        env, containers = make_env(combo_label="T_N_J")
        ac, lb = install_ac(env, containers, lb=True)
        task = make_task(
            "P", TaskKind.PERIODIC, deadline=1.0, execs=(0.2,),
            homes=("app1",), replicas=[("app2",)],
        )
        current = {0: "app1"}
        for subtask in task.subtasks:
            ac.ledger.add(
                "app1", (task.task_id, RESERVED, subtask.index), 0.2
            )
        # app1 holds only this reservation; moving gains nothing.
        assert lb.location_for_reserved(task, current) is None

    def test_location_for_reserved_moves_off_hot_node(self):
        env, containers = make_env(combo_label="T_N_J")
        ac, lb = install_ac(env, containers, lb=True)
        task = make_task(
            "P", TaskKind.PERIODIC, deadline=1.0, execs=(0.2,),
            homes=("app1",), replicas=[("app2",)],
        )
        ac.ledger.add("app1", (task.task_id, RESERVED, 0), 0.2)
        ac.analyzer.register((task.task_id, RESERVED), ["app1"], None)
        ac.ledger.add("app1", ("OTHER", 0, 0), 0.5)  # app1 now hot
        proposed = lb.location_for_reserved(task, {0: "app1"})
        assert proposed == {0: "app2"}
        # Planning a move tests nothing; the AC tests it before moving.
        assert ac.analyzer.tests_performed == 0

    def test_unconnected_state_refused_at_activation(self):
        env, containers = make_env()
        lb = LoadBalancerComponent("LB", env)
        containers[env.manager_node].install(lb)
        with pytest.raises(ComponentError):
            lb.activate()


# ----------------------------------------------------------------------
# Idle Resetter
# ----------------------------------------------------------------------
class TestIdleResetter:
    def finished_job(self, strategy, kind, deadline=10.0):
        env, containers = make_env(combo_label="J_J_N")
        ir = install_ir(env, containers, strategy=strategy)
        task = make_task("T", kind, deadline=deadline, execs=(0.1,))
        job = Job(task, 0, 0.0, "app1")
        return env, ir, job

    def test_strategy_none_records_nothing(self):
        env, ir, job = self.finished_job("N", TaskKind.PERIODIC)
        ir.complete(job, 0)
        assert ir.completions_recorded == 0

    def test_per_task_skips_periodic(self):
        env, ir, job = self.finished_job("T", TaskKind.PERIODIC)
        ir.complete(job, 0)
        assert ir.completions_recorded == 0

    def test_per_task_records_aperiodic(self):
        env, ir, job = self.finished_job("T", TaskKind.APERIODIC)
        ir.complete(job, 0)
        assert ir.completions_recorded == 1

    def test_per_job_records_periodic(self):
        env, ir, job = self.finished_job("J", TaskKind.PERIODIC)
        ir.complete(job, 0)
        assert ir.completions_recorded == 1

    def test_expired_jobs_not_recorded(self):
        env, ir, job = self.finished_job("J", TaskKind.APERIODIC, deadline=0.1)
        env.sim.schedule(0.5, lambda: ir.complete(job, 0))
        env.sim.run()
        assert ir.completions_recorded == 0

    def test_report_batches_multiple_completions(self):
        env, containers = make_env(combo_label="J_J_N")
        ir = install_ir(env, containers, strategy="J")
        seen = []
        env.federation.subscribe(env.manager_node, TOPIC_IDLE_RESETTING, seen.append)
        task = make_task("T", TaskKind.PERIODIC, deadline=10.0, execs=(0.1,))
        for i in range(3):
            ir.complete(Job(task, i, 0.0, "app1"), 0)
        env.sim.run()
        assert len(seen) == 1
        assert len(seen[0].entries) == 3
        assert ir.reports_sent == 1

    def test_idle_detector_waits_for_application_work(self):
        """The report work runs at +inf priority: it only executes after
        application threads drain (the paper's idle-detector semantics)."""
        env, containers = make_env(combo_label="J_J_N")
        ir = install_ir(env, containers, strategy="J")
        cpu = containers["app1"].processor
        app_thread = cpu.new_thread("app", 1.0)
        from repro.cpu.thread import WorkItem

        report_times = []
        env.federation.subscribe(
            env.manager_node,
            TOPIC_IDLE_RESETTING,
            lambda e: report_times.append(env.sim.now),
        )
        task = make_task("T", TaskKind.PERIODIC, deadline=10.0, execs=(0.1,))
        ir.complete(Job(task, 0, 0.0, "app1"), 0)
        cpu.submit(app_thread, WorkItem(2.0))  # busy until t=2
        env.sim.run()
        assert report_times and report_times[0] >= 2.0


# ----------------------------------------------------------------------
# Subtask components
# ----------------------------------------------------------------------
class TestSubtaskComponents:
    def test_fi_triggers_successor_on_remote_node(self):
        env, containers = make_env(combo_label="J_N_N")
        task = make_task(
            "T", TaskKind.APERIODIC, deadline=1.0, execs=(0.1, 0.1),
            homes=("app1", "app2"),
        )
        first = install_subtask(env, containers, task, 0, "app1", is_last=False)
        last = install_subtask(env, containers, task, 1, "app2", is_last=True)
        job = Job(task, 0, 0.0, "app1")
        first.release(job, {0: "app1", 1: "app2"})
        env.sim.run()
        assert first.subjobs_executed == 1
        assert last.subjobs_executed == 1
        assert job.completed_at == pytest.approx(0.1 + 0.001 + 0.1)

    def test_release_rejects_wrong_node_assignment(self):
        env, containers = make_env()
        task = make_task("T", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,))
        comp = install_subtask(env, containers, task, 0, "app1", is_last=True)
        job = Job(task, 0, 0.0, "app1")
        with pytest.raises(ComponentError):
            comp.release(job, {0: "app2"})

    def test_last_subtask_records_completion_metric(self):
        env, containers = make_env()
        task = make_task("T", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,))
        comp = install_subtask(env, containers, task, 0, "app1", is_last=True)
        job = Job(task, 0, 0.0, "app1")
        comp.release(job, {0: "app1"})
        env.sim.run()
        assert env.metrics.completed_jobs == 1
        assert job.subjob_finish_times[0] == pytest.approx(0.1)

    def test_subjob_completion_notifies_ir(self):
        env, containers = make_env(combo_label="J_J_N")
        ir = install_ir(env, containers, strategy="J")
        task = make_task("T", TaskKind.PERIODIC, deadline=1.0, execs=(0.1,))
        comp = install_subtask(
            env, containers, task, 0, "app1", is_last=True, ir=ir
        )
        job = Job(task, 0, 0.0, "app1")
        comp.release(job, {0: "app1"})
        env.sim.run()
        assert ir.completions_recorded == 1

    def test_ir_mode_none_suppresses_notification(self):
        env, containers = make_env(combo_label="J_N_N")
        ir = install_ir(env, containers, strategy="N")
        task = make_task("T", TaskKind.PERIODIC, deadline=1.0, execs=(0.1,))
        comp = install_subtask(
            env, containers, task, 0, "app1", is_last=True, ir=ir
        )
        job = Job(task, 0, 0.0, "app1")
        comp.release(job, {0: "app1"})
        env.sim.run()
        assert ir.completions_recorded == 0

    def test_attributes_validated(self):
        env, _ = make_env()
        comp = FISubtaskComponent("s", env)
        with pytest.raises(AttributeConfigError):
            comp.set_attribute("execution_time", -1.0)
        with pytest.raises(AttributeConfigError):
            comp.set_attribute("subtask_index", -2)
        with pytest.raises(AttributeConfigError):
            comp.set_attribute("ir_mode", "X")
