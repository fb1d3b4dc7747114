"""Integration tests: the semantics of each AC/IR/LB strategy.

These tests pin down the behavioral contracts from paper section 4:
per-task admission reserves utilization for the task's lifetime; per-job
admission releases it at job deadlines; idle resetting reclaims completed
subjobs (aperiodic only under per-task, periodic too under per-job); load
balancing per task fixes assignments while per job may move them.
"""

import pytest

from repro.core.cost_model import CostModel
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo
from repro.net.latency import ConstantDelay
from repro.sched.aub import RESERVED
from repro.sched.task import TaskKind
from repro.workloads.model import Workload

from tests.taskutil import make_task

DELAY = 0.001


def build(workload, label, **kwargs):
    kwargs.setdefault("cost_model", CostModel.zero())
    kwargs.setdefault("delay_model", ConstantDelay(DELAY))
    return MiddlewareSystem(workload, StrategyCombo.from_label(label), **kwargs)


def periodic_workload(exec_time=0.1, deadline=1.0, replicas=None):
    task = make_task(
        "P1",
        TaskKind.PERIODIC,
        deadline=deadline,
        execs=(exec_time,),
        homes=("app1",),
        replicas=replicas,
    )
    nodes = sorted({n for s in task.subtasks for n in s.eligible}) or ["app1"]
    if "app2" not in nodes and replicas:
        nodes.append("app2")
    return Workload(tasks=(task,), app_nodes=tuple(nodes)), task


class TestAcPerTaskReservation:
    def test_reservation_persists_between_jobs(self):
        workload, task = periodic_workload(exec_time=0.1, deadline=1.0)
        system = build(workload, "T_N_N")
        system.run(duration=5.0, drain=False)
        # Reserved contribution never leaves the ledger.
        assert system.ac.ledger.utilization("app1") == pytest.approx(0.1)
        assert system.ac.ledger.contains("app1", ("P1", RESERVED, 0))

    def test_only_first_job_consults_ac(self):
        workload, task = periodic_workload()
        system = build(workload, "T_N_N")
        system.run(duration=5.0, drain=False)
        # ~5 jobs arrived but the AC decided only once.
        assert system.metrics.arrived_jobs >= 4
        assert system.ac.admitted_jobs == 1
        assert system.metrics.released_jobs == system.metrics.arrived_jobs

    def test_rejected_task_skips_all_jobs(self):
        blocker = make_task(
            "BLOCK", TaskKind.PERIODIC, deadline=1.0, execs=(0.55,), homes=("app1",),
            phase=0.0,
        )
        victim = make_task(
            "VICTIM", TaskKind.PERIODIC, deadline=1.0, execs=(0.5,), homes=("app1",),
            phase=0.1,
        )
        workload = Workload(tasks=(blocker, victim), app_nodes=("app1",))
        system = build(workload, "T_N_N")
        system.run(duration=5.0, drain=False)
        # VICTIM was rejected at first arrival; every job skipped.
        assert system.ac.rejected_jobs == 1
        assert system.metrics.rejected_jobs >= 4
        assert system.metrics.accepted_utilization_ratio < 1.0


class TestAcPerJobExpiry:
    def test_contribution_expires_each_deadline(self):
        workload, task = periodic_workload(exec_time=0.1, deadline=1.0)
        system = build(workload, "J_N_N")
        system.run(duration=5.5, drain=False)
        # At the end of the run the current job's contribution is present,
        # but no RESERVED entry exists.
        assert not system.ac.ledger.contains("app1", ("P1", RESERVED, 0))
        assert system.ac.ledger.utilization("app1") <= 0.1 + 1e-9

    def test_every_job_tested(self):
        workload, task = periodic_workload()
        system = build(workload, "J_N_N")
        system.run(duration=5.0, drain=False)
        assert system.ac.admitted_jobs == system.metrics.arrived_jobs

    def test_rejected_job_retried_next_period(self):
        # Two periodic tasks that cannot coexist: with per-job AC the loser
        # still gets tested (and admitted whenever the other's phase allows).
        blocker = make_task(
            "BLOCK", TaskKind.APERIODIC, deadline=0.4, execs=(0.22,),
            homes=("app1",), phase=0.0,
        )
        # period > deadline: the victim's contribution leaves gaps the
        # blocker can win, so both tasks lose some arrivals to the other.
        victim = make_task(
            "VICTIM", TaskKind.PERIODIC, deadline=0.5, execs=(0.25,),
            homes=("app1",), phase=0.1, period=1.0,
        )
        workload = Workload(tasks=(blocker, victim), app_nodes=("app1",))
        system = build(
            workload, "J_N_N", aperiodic_interarrival_factor=2.0, seed=3
        )
        system.run(duration=20.0, drain=False)
        # VICTIM, the one periodic task, has both released and rejected
        # jobs over the run.
        victim = system.metrics.per_kind[TaskKind.PERIODIC]
        assert victim.rejected_jobs > 0
        assert victim.released_jobs > 0


class TestIdleResetting:
    def test_no_ir_keeps_contribution_until_deadline(self):
        workload, task = periodic_workload(exec_time=0.1, deadline=1.0)
        system = build(workload, "J_N_N")
        system.sim.schedule_at(0.0, system._arrive, task, 0, 0.0)
        system.sim.run(until=0.5)
        # Job completed at ~0.1 but contribution still held at t=0.5.
        assert system.ac.ledger.utilization("app1") == pytest.approx(0.1)

    def test_ir_per_job_reclaims_completed_periodic_subjobs(self):
        workload, task = periodic_workload(exec_time=0.1, deadline=1.0)
        system = build(workload, "J_J_N")
        system.sim.schedule_at(0.0, system._arrive, task, 0, 0.0)
        system.sim.run(until=0.5)
        # Completed subjob was reset when app1 idled (well before 0.5).
        assert system.ac.ledger.utilization("app1") == 0.0
        assert system.ac.idle_resets_applied >= 1

    def test_ir_per_task_ignores_periodic_subjobs(self):
        workload, task = periodic_workload(exec_time=0.1, deadline=1.0)
        system = build(workload, "J_T_N")
        system.sim.schedule_at(0.0, system._arrive, task, 0, 0.0)
        system.sim.run(until=0.5)
        assert system.ac.ledger.utilization("app1") == pytest.approx(0.1)

    def test_ir_per_task_reclaims_aperiodic_subjobs(self):
        task = make_task(
            "A1", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,), homes=("app1",)
        )
        workload = Workload(tasks=(task,), app_nodes=("app1",))
        system = build(workload, "J_T_N")
        system.sim.schedule_at(0.0, system._arrive, task, 0, 0.0)
        system.sim.run(until=0.5)
        assert system.ac.ledger.utilization("app1") == 0.0
        assert system.env.idle_resetters["app1"].reports_sent == 1

    def test_ir_none_sends_no_reports(self):
        workload, task = periodic_workload()
        system = build(workload, "J_N_N")
        system.run(duration=3.0, drain=False)
        assert system.env.idle_resetters["app1"].reports_sent == 0

    def test_ir_improves_acceptance_for_bursty_aperiodics(self):
        """The paper's core IR claim: resetting admits more load."""
        periodic = make_task(
            "P1", TaskKind.PERIODIC, deadline=1.0, execs=(0.3,), homes=("app1",)
        )
        burst = make_task(
            "A1", TaskKind.APERIODIC, deadline=1.0, execs=(0.3,), homes=("app1",)
        )
        workload = Workload(tasks=(periodic, burst), app_nodes=("app1",))
        with_ir = build(workload, "J_J_N", seed=11, aperiodic_interarrival_factor=1.0)
        without_ir = build(workload, "J_N_N", seed=11, aperiodic_interarrival_factor=1.0)
        r_with = with_ir.run(duration=60.0)
        r_without = without_ir.run(duration=60.0)
        assert (
            r_with.accepted_utilization_ratio
            > r_without.accepted_utilization_ratio
        )


class TestLoadBalancingStrategies:
    def imbalanced_workload(self):
        resident = make_task(
            "R", TaskKind.PERIODIC, deadline=1.0, execs=(0.4,), homes=("app1",)
        )
        replicated = make_task(
            "P2",
            TaskKind.PERIODIC,
            deadline=1.0,
            execs=(0.3,),
            homes=("app1",),
            replicas=[("app2",)],
            phase=0.5,
        )
        return Workload(tasks=(resident, replicated), app_nodes=("app1", "app2"))

    def test_lb_per_task_fixes_assignment(self):
        system = build(self.imbalanced_workload(), "J_N_T")
        system.run(duration=5.0, drain=False)
        # P2 placed on app2 (lower utilization) at first arrival; all its
        # jobs ran there.
        assert system.env.task_effectors["app2"].jobs_released >= 4
        assert system.lb.location_calls >= 1

    def test_lb_per_job_relocates_each_job(self):
        system = build(self.imbalanced_workload(), "J_N_J")
        system.run(duration=5.0, drain=False)
        # Every P2 job got a fresh Location call.
        assert system.lb.location_calls >= 4

    def test_ac_per_task_lb_per_job_moves_reservation(self):
        system = build(self.imbalanced_workload(), "T_N_J")
        system.run(duration=5.0, drain=False)
        # P2's reservation lives somewhere (exactly one node holds it).
        on_app1 = system.ac.ledger.contains("app1", ("P2", RESERVED, 0))
        on_app2 = system.ac.ledger.contains("app2", ("P2", RESERVED, 0))
        assert on_app1 != on_app2

    def test_lb_improves_imbalanced_acceptance(self):
        """The paper's Figure 6 claim at unit-test scale."""
        heavy_a = make_task(
            "HA", TaskKind.APERIODIC, deadline=1.0, execs=(0.35,),
            homes=("app1",), replicas=[("app2",)],
        )
        heavy_b = make_task(
            "HB", TaskKind.APERIODIC, deadline=1.0, execs=(0.35,),
            homes=("app1",), replicas=[("app2",)],
        )
        workload = Workload(tasks=(heavy_a, heavy_b), app_nodes=("app1", "app2"))
        no_lb = build(workload, "J_N_N", seed=4, aperiodic_interarrival_factor=1.0)
        with_lb = build(workload, "J_N_T", seed=4, aperiodic_interarrival_factor=1.0)
        r_no = no_lb.run(duration=60.0)
        r_lb = with_lb.run(duration=60.0)
        assert r_lb.accepted_utilization_ratio > r_no.accepted_utilization_ratio


class TestReleaseModes:
    def test_te_release_mode_per_task_only_when_ac_t_and_lb_not_j(self):
        workload, _ = periodic_workload(replicas=[("app2",)])
        for label, expected in (
            ("T_N_N", "per_task"),
            ("T_N_T", "per_task"),
            ("T_N_J", "per_job"),
            ("J_N_N", "per_job"),
            ("J_J_J", "per_job"),
        ):
            system = build(workload, label)
            te = system.env.task_effectors["app1"]
            assert te.get_attribute("release_mode") == expected, label
