"""Tests for the decentralized admission-control extension."""

import pytest

from repro.core.cost_model import CostModel
from repro.core.distributed_ac import (
    DistributedMiddlewareSystem,
    Outcome,
    ReserveRequest,
    Vote,
)
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo
from repro.net.latency import ConstantDelay
from repro.sched.aub import aub_term, aub_term_inverse
from repro.sched.task import TaskKind
from repro.workloads.model import Workload

from tests.taskutil import make_task, make_two_node_workload


class TestTermInverse:
    def test_roundtrip(self):
        for u in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
            assert aub_term_inverse(aub_term(u)) == pytest.approx(u, abs=1e-12)

    def test_known_point(self):
        # f(0.5) = 0.75
        assert aub_term_inverse(0.75) == pytest.approx(0.5)

    def test_infinite_term_maps_to_saturation(self):
        assert aub_term_inverse(float("inf")) == 1.0

    def test_negative_rejected(self):
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError):
            aub_term_inverse(-0.1)


def build_distributed(workload, **kwargs):
    kwargs.setdefault("cost_model", CostModel.zero())
    kwargs.setdefault("delay_model", ConstantDelay(0.001))
    return DistributedMiddlewareSystem(workload, **kwargs)


class TestDistributedAdmission:
    def test_single_node_task_admitted_locally(self):
        task = make_task(
            "A", TaskKind.APERIODIC, deadline=1.0, execs=(0.2,), homes=("app1",)
        )
        workload = Workload(tasks=(task,), app_nodes=("app1", "app2"))
        system = build_distributed(workload, seed=1)
        system.sim.schedule_at(0.0, system._arrive, task, 0, 0.0)
        system.sim.run(until=2.0)
        assert system.acs["app1"].admitted_jobs == 1
        assert system.metrics.completed_jobs == 1

    def test_multi_node_task_coordinates(self):
        task = make_task(
            "A", TaskKind.APERIODIC, deadline=1.0, execs=(0.1, 0.1),
            homes=("app1", "app2"),
        )
        workload = Workload(tasks=(task,), app_nodes=("app1", "app2"))
        system = build_distributed(workload, seed=1)
        system.sim.schedule_at(0.0, system._arrive, task, 0, 0.0)
        system.sim.run(until=2.0)
        coordinator = system.acs["app1"]
        assert coordinator.admitted_jobs == 1
        assert coordinator.reserve_messages == 2  # app1 + app2
        assert system.metrics.completed_jobs == 1

    def test_saturating_jobs_rejected(self):
        task = make_task(
            "A", TaskKind.APERIODIC, deadline=1.0, execs=(0.5,), homes=("app1",)
        )
        workload = Workload(tasks=(task,), app_nodes=("app1",))
        system = build_distributed(workload, seed=1)
        for i in range(3):
            system.sim.schedule_at(0.0, system._arrive, task, i, 0.0)
        system.sim.run(until=2.0)
        ac = system.acs["app1"]
        assert ac.admitted_jobs == 1
        assert ac.rejected_jobs == 2

    def test_contributions_expire_at_deadline(self):
        task = make_task(
            "A", TaskKind.APERIODIC, deadline=1.0, execs=(0.3,), homes=("app1",)
        )
        workload = Workload(tasks=(task,), app_nodes=("app1",))
        system = build_distributed(workload, seed=1)
        system.sim.schedule_at(0.0, system._arrive, task, 0, 0.0)
        system.sim.run(until=0.5)
        assert system.acs["app1"].utilization == pytest.approx(0.3)
        system.sim.run(until=1.5)
        assert system.acs["app1"].utilization == 0.0

    def test_caps_protect_admitted_tasks(self):
        """A committed multi-node task's caps stop later single-node
        arrivals from overloading one of its stages."""
        spanning = make_task(
            "S", TaskKind.APERIODIC, deadline=2.0, execs=(0.6, 0.6),
            homes=("app1", "app2"),
        )
        local = make_task(
            "L", TaskKind.APERIODIC, deadline=2.0, execs=(0.8,), homes=("app1",)
        )
        workload = Workload(tasks=(spanning, local), app_nodes=("app1", "app2"))
        system = build_distributed(workload, seed=1)
        system.sim.schedule_at(0.0, system._arrive, spanning, 0, 0.0)
        system.sim.schedule_at(0.1, system._arrive, local, 0, 0.1)
        system.sim.run(until=3.0)
        # spanning: u=0.3 per stage; f(0.3)*2 = 0.73, slack 0.27 split ->
        # cap per node = f_inv(f(0.3)+0.136) = f_inv(0.5) ~ 0.42.
        # local adds 0.4 on app1 -> 0.7 > cap -> must be rejected even
        # though app1's own saturation bound would allow it.
        assert system.acs["app1"].admitted_jobs == 1
        assert system.acs["app1"].rejected_jobs == 1
        assert system.metrics.latency.deadline_misses == 0

    def test_no_deadline_misses_on_random_workload(self):
        import random
        from repro.workloads.generator import generate_random_workload

        workload = generate_random_workload(random.Random(4))
        system = DistributedMiddlewareSystem(workload, seed=9)
        results = system.run(duration=40.0)
        assert results.deadline_misses == 0
        assert (
            results.metrics.released_jobs + results.metrics.rejected_jobs
            == results.metrics.arrived_jobs
        )

    def test_burst_coordinates_one_round_per_job(self):
        """Ten same-instant arrivals of a two-stage task: one two-phase
        round per job, one reserve message per participant per round.
        The burst saturates, so the later jobs are refused."""
        task = make_task(
            "A", TaskKind.APERIODIC, deadline=1.0, execs=(0.1, 0.1),
            homes=("app1", "app2"),
        )
        workload = Workload(tasks=(task,), app_nodes=("app1", "app2"))
        system = build_distributed(
            workload, seed=1, cost_model=CostModel(jitter=0.0)
        )
        for i in range(10):
            system.sim.schedule_at(0.0, system._arrive, task, i, 0.0)
        system.sim.run(until=0.5)
        rounds = sum(ac.coordination_rounds for ac in system.acs.values())
        messages = sum(ac.reserve_messages for ac in system.acs.values())
        coordinator = system.acs["app1"]
        assert (rounds, messages) == (10, 20)
        assert (coordinator.admitted_jobs, coordinator.rejected_jobs) == (3, 7)

    def test_expired_deadline_rejected_before_round(self):
        """An arrival whose deadline passes while its admission cost
        elapses is rejected without opening a round."""
        task = make_task(
            "A", TaskKind.APERIODIC, deadline=0.25, execs=(0.1, 0.1),
            homes=("app1", "app2"),
        )
        workload = Workload(tasks=(task,), app_nodes=("app1", "app2"))
        system = build_distributed(
            workload,
            seed=1,
            cost_model=CostModel(jitter=0.0, admission_test=0.3),
        )
        for i in range(4):
            system.sim.schedule_at(0.0, system._arrive, task, i, 0.0)
        system.sim.run(until=1.5)
        coordinator = system.acs["app1"]
        # The dispatch thread runs one 0.3 s admission test per arrival,
        # ending at ~0.3, 0.6, 0.9 and 1.2 s: each is past the jobs'
        # 0.25 s absolute deadline, so no round is coordinated.
        assert coordinator.admitted_jobs == 0
        assert coordinator.rejected_jobs == 4
        assert coordinator.coordination_rounds == 0
        assert coordinator.reserve_messages == 0
        assert all(ac.utilization == 0.0 for ac in system.acs.values())

class TestDistributedComparisons:
    @pytest.mark.parametrize(
        "task_set, seed, duration",
        [(6, 2, 40.0)] + [(100 + s, s, 60.0) for s in range(3)],
    )
    def test_more_conservative_than_centralized(self, task_set, seed, duration):
        """Slack partitioning makes the decentralized variant more
        conservative given the same admission state.  Across a whole
        trace the admission *timing* differs slightly (no central queue),
        so we allow a small tolerance rather than strict dominance.  It
        stays safe: no admitted job misses its deadline."""
        import random
        from repro.workloads.generator import generate_random_workload

        workload = generate_random_workload(random.Random(task_set))
        distributed = DistributedMiddlewareSystem(workload, seed=seed)
        r_dist = distributed.run(duration=duration)
        centralized = MiddlewareSystem(
            workload, StrategyCombo.from_label("J_N_N"), seed=seed
        )
        r_cent = centralized.run(duration=duration)
        assert (
            r_dist.accepted_utilization_ratio
            <= r_cent.accepted_utilization_ratio + 0.05
        )
        assert r_dist.deadline_misses == 0


#: Every two-phase message type, with one value per field.
MESSAGES = [
    (
        ReserveRequest,
        dict(txn=1, coordinator="app1", job_key=("T", 0), delta=0.1, expiry=2.0),
    ),
    (Vote, dict(txn=1, node="app2", granted=True, post_utilization=0.4)),
    (Outcome, dict(txn=1, job_key=("T", 0), commit=True, cap=0.7, expiry=2.0)),
]


@pytest.mark.parametrize(
    "cls, fields", MESSAGES, ids=[cls.__name__ for cls, _ in MESSAGES]
)
def test_messages_are_read_only(cls, fields):
    message = cls(**fields)
    for name, value in fields.items():
        assert getattr(message, name) == value
        with pytest.raises(AttributeError):
            setattr(message, name, None)


def test_message_defaults():
    refused = Vote(txn=1, node="n", granted=False)
    aborted = Outcome(txn=1, job_key=("T", 0), commit=False)
    assert refused == (1, "n", False, 0.0)
    assert aborted == (1, ("T", 0), False, 1.0, 0.0)
