"""End-to-end property tests: middleware invariants over random
workloads and strategy combinations."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Scenario, Session, WorkloadSource
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import valid_combinations
from repro.sched.task import SubtaskSpec, TaskKind, TaskSpec
from repro.workloads.model import Workload
from tests.uninstallutil import run_freeing_replicas

NODES = ("app1", "app2", "app3")


@st.composite
def small_workloads(draw, utilizations=(0.1, 0.2, 0.35)):
    """Random 2-4 task workloads over three processors, light enough to
    finish fast but heavy enough to trigger occasional rejections.  Each
    task's utilization is one of ``utilizations``."""
    n_tasks = draw(st.integers(min_value=2, max_value=4))
    tasks = []
    for i in range(n_tasks):
        kind = draw(st.sampled_from(list(TaskKind)))
        deadline = draw(st.sampled_from([0.5, 1.0, 2.0]))
        n_sub = draw(st.integers(min_value=1, max_value=3))
        util = draw(st.sampled_from(utilizations))
        subtasks = []
        for j in range(n_sub):
            home = draw(st.sampled_from(NODES))
            replica = draw(
                st.sampled_from([(), tuple(n for n in NODES if n != home)[:1]])
            )
            subtasks.append(
                SubtaskSpec(
                    index=j,
                    execution_time=util * deadline / n_sub,
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
                phase=draw(st.sampled_from([0.0, 0.2, 0.7])),
            )
        )
    return Workload(tasks=tuple(tasks), app_nodes=NODES)


combos = st.sampled_from(valid_combinations())


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_workloads(), combos, st.integers(min_value=0, max_value=100))
def test_middleware_invariants(workload, combo, seed):
    """For any workload, combination and seed:

    * every arriving job is either released or rejected (none stuck);
    * counters and the accepted utilization ratio stay consistent;
    * every released job completes within the drain window;
    * released jobs meet their end-to-end deadlines (AUB guarantee, at
      LAN-scale delays with calibrated overheads);
    * the ledger is non-negative, and under AC per job it is empty after
      all deadlines pass.
    """
    system = MiddlewareSystem(workload, combo, seed=seed)
    results = system.run(duration=8.0)
    metrics = results.metrics

    assert metrics.released_jobs + metrics.rejected_jobs == metrics.arrived_jobs
    assert 0.0 <= results.accepted_utilization_ratio <= 1.0 + 1e-9
    assert metrics.completed_jobs == metrics.released_jobs
    assert metrics.deadline_misses == 0

    ledger = system.ac.ledger
    for node in workload.app_nodes:
        assert ledger.utilization(node) >= 0.0
        # Reserved (AC-per-task) contributions legitimately persist; all
        # per-job contributions must have expired after the drain.
        if combo.ac.value == "J":
            assert ledger.utilization(node) == 0.0, node
            assert ledger.contribution_count(node) == 0, node

    # No job left held inside any task effector.
    for te in system.env.task_effectors.values():
        assert not te.waiting


# ----------------------------------------------------------------------
# The paper's guarantee on both engines, through Session
# ----------------------------------------------------------------------
COMBO_LABELS = [combo.label for combo in valid_combinations()]

#: Heavy enough that admitting every arrival misses deadlines.
loaded_workloads = small_workloads(utilizations=(0.2, 0.35, 0.6, 0.9))


def assert_guarantee(scenario):
    """Run a fault-free ``scenario``: every arrival of each task kind is
    released or rejected, every released job completes, and none misses
    its end-to-end deadline.  No subtask replica outlives the run
    (:func:`tests.uninstallutil.run_freeing_replicas`)."""
    session = Session(scenario)
    result = run_freeing_replicas(session)
    for kind, counters in session.system.metrics.per_kind.items():
        assert counters.arrived_jobs == (
            counters.released_jobs + counters.rejected_jobs
        ), kind
    assert result.completed_jobs == result.released_jobs
    assert result.deadline_misses == 0


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    loaded_workloads,
    st.sampled_from(COMBO_LABELS),
    st.booleans(),
    st.integers(min_value=0, max_value=100),
)
def test_guarantee_centralized(workload, combo, batching, seed):
    assert_guarantee(
        Scenario(
            workload=WorkloadSource.explicit(workload),
            combo=combo,
            duration=8.0,
            seed=seed,
            arrival_batching=batching,
        )
    )


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(loaded_workloads, st.integers(min_value=0, max_value=100))
def test_guarantee_distributed(workload, seed):
    assert_guarantee(
        Scenario(
            workload=WorkloadSource.explicit(workload),
            engine="distributed",
            combo="J_N_N",
            duration=8.0,
            seed=seed,
        )
    )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.sampled_from([WorkloadSource.random, WorkloadSource.imbalanced]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(COMBO_LABELS + ["distributed"]),
    st.booleans(),
    st.integers(min_value=0, max_value=100),
)
def test_guarantee_generated_sources(
    source, source_seed, index, combo, batching, seed
):
    engine = "middleware"
    if combo == "distributed":
        engine, combo, batching = "distributed", "J_N_N", False
    assert_guarantee(
        Scenario(
            workload=source(seed=source_seed, index=index),
            engine=engine,
            combo=combo,
            duration=10.0,
            seed=seed,
            arrival_batching=batching,
        )
    )


# ----------------------------------------------------------------------
# Triggers reach the stage the assignment names, on both engines
# ----------------------------------------------------------------------
def assert_stages_ran_where_assigned(scenario):
    """Every completed job ran each stage ``i`` on the component deployed
    at ``(task, i, assignment[i])``, and no component ran anything else."""
    session = Session(scenario)
    system = session.deploy()
    completed = []
    on_completion = system.metrics.on_completion

    def record(job):
        completed.append(job)
        on_completion(job)

    system.metrics.on_completion = record
    # Taken before the run: a finished run uninstalls the replicas.
    stages = dict(system.env.subtask_instances)
    result = session.run()
    assert len(completed) == result.completed_jobs == result.released_jobs
    expected = dict.fromkeys(stages, 0)
    for job in completed:
        task_id = job.task.task_id
        assert sorted(job.subjob_finish_times) == sorted(job.assignment)
        for index, node in job.assignment.items():
            expected[task_id, index, node] += 1
    ran = {key: stage.subjobs_executed for key, stage in stages.items()}
    assert ran == expected


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    small_workloads(),
    st.sampled_from(COMBO_LABELS + ["distributed"]),
    st.booleans(),
    st.integers(min_value=0, max_value=100),
)
def test_triggers_reach_the_assigned_stage(workload, combo, batching, seed):
    engine = "middleware"
    if combo == "distributed":
        engine, combo, batching = "distributed", "J_N_N", False
    assert_stages_ran_where_assigned(
        Scenario(
            workload=WorkloadSource.explicit(workload),
            engine=engine,
            combo=combo,
            duration=8.0,
            seed=seed,
            arrival_batching=batching,
        )
    )
