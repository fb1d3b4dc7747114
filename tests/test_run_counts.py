"""Per-event counts of small runs, read from the components' own
counters: AC decisions, IR reports, TE arrivals, releases and
rejections, subjobs run and jobs completed."""

from collections import Counter

import pytest

from repro.core.cost_model import CostModel
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import (
    ACStrategy,
    IRStrategy,
    StrategyCombo,
    valid_combinations,
)
from repro.net.latency import ConstantDelay
from repro.sched.task import TaskKind
from repro.workloads.model import Workload

from tests.taskutil import make_task, make_two_node_workload

#: Counts of the J_J_T run below, fixed by its seed.  Every counter is
#: one increment per event on its path; a path that stops running or
#: counting changes them.
COUNTS = {
    "ac.admitted_jobs": 10,
    "ac.rejected_jobs": 0,
    "ir.reports_sent": 14,
    "metrics.arrived_jobs": 10,
    "metrics.completed_jobs": 10,
    "rows.subjobs_executed": 15,
    "te.jobs_released": 10,
    "te.jobs_rejected": 0,
}
#: The same run with an extra heavy aperiodic task: one arrival is
#: rejected, which reaches the AC's and the TE's reject paths as well.
OVERLOADED_COUNTS = {
    "ac.admitted_jobs": 16,
    "ac.rejected_jobs": 1,
    "ir.reports_sent": 19,
    "metrics.arrived_jobs": 17,
    "metrics.completed_jobs": 16,
    "rows.subjobs_executed": 21,
    "te.jobs_released": 16,
    "te.jobs_rejected": 1,
}


def _overloaded_workload():
    base = make_two_node_workload()
    heavy = make_task(
        "H1",
        TaskKind.APERIODIC,
        deadline=0.5,
        execs=(0.2,),
        homes=("app1",),
        replicas=[("app2",)],
    )
    return Workload(tasks=base.tasks + (heavy,), app_nodes=base.app_nodes)


def _run(workload, label="J_J_T"):
    """Run ``workload`` for 5 s under ``label``; return the system and
    its stage rows by (task, stage, node)."""
    system = MiddlewareSystem(
        workload,
        StrategyCombo.from_label(label),
        seed=3,
        cost_model=CostModel.zero(),
        delay_model=ConstantDelay(0.001),
    )
    # A finished run frees its stage rows: take them before it.
    rows = dict(system.env.subtask_instances)
    system.run(duration=5.0)
    return system, rows


def _counts(system, rows):
    effectors = system.env.task_effectors.values()
    return {
        "ac.admitted_jobs": system.ac.admitted_jobs,
        "ac.rejected_jobs": system.ac.rejected_jobs,
        "ir.reports_sent": sum(
            ir.reports_sent for ir in system.env.idle_resetters.values()
        ),
        "metrics.arrived_jobs": system.metrics.arrived_jobs,
        "metrics.completed_jobs": system.metrics.completed_jobs,
        "rows.subjobs_executed": sum(row.subjobs_executed for row in rows.values()),
        "te.jobs_released": sum(te.jobs_released for te in effectors),
        "te.jobs_rejected": sum(te.jobs_rejected for te in effectors),
    }


def test_counts_per_event():
    assert _counts(*_run(make_two_node_workload())) == COUNTS


def test_reject_paths_count():
    assert _counts(*_run(_overloaded_workload())) == OVERLOADED_COUNTS


@pytest.mark.parametrize("label", [combo.label for combo in valid_combinations()])
def test_owners_count_each_event_once(label):
    """Under every combo, the overloaded run's counters agree across
    their owners: each arrival ends in one TE outcome, each held job in
    one AC decision, each released job runs each of its stages once and
    completes, and the IRs record each subjob their strategy covers."""
    workload = _overloaded_workload()
    system, rows = _run(workload, label)
    counts = _counts(system, rows)
    metrics = system.metrics
    combo = system.combo

    assert counts["te.jobs_released"] == metrics.released_jobs
    assert counts["te.jobs_rejected"] == metrics.rejected_jobs
    assert metrics.released_jobs + metrics.rejected_jobs == metrics.arrived_jobs
    assert metrics.rejected_jobs > 0

    held = sum(te.jobs_held for te in system.env.task_effectors.values())
    assert counts["ac.admitted_jobs"] + counts["ac.rejected_jobs"] == held
    if combo.ac is ACStrategy.PER_JOB:
        assert held == metrics.arrived_jobs
        assert counts["ac.admitted_jobs"] == metrics.released_jobs
        assert counts["ac.rejected_jobs"] == metrics.rejected_jobs

    assert metrics.completed_jobs == metrics.released_jobs
    assert metrics.response_times.count == metrics.completed_jobs
    assert metrics.deadline_misses == 0
    executed = Counter()
    for (task_id, stage, _node), row in rows.items():
        executed[task_id, stage] += row.subjobs_executed
    completed = 0
    for task in workload.tasks:
        per_stage = {executed[task.task_id, j] for j in range(len(task.subtasks))}
        assert len(per_stage) == 1, task.task_id
        completed += per_stage.pop()
    assert completed == metrics.completed_jobs

    resetters = system.env.idle_resetters.values()
    recorded = sum(ir.completions_recorded for ir in resetters)
    reported = sum(ir.entries_reported for ir in resetters)
    if combo.ir is IRStrategy.NONE:
        covered = 0
    elif combo.ir is IRStrategy.PER_TASK:
        kinds = {task.task_id: task.kind for task in workload.tasks}
        covered = sum(
            count
            for (task_id, _stage), count in executed.items()
            if kinds[task_id] is TaskKind.APERIODIC
        )
    else:
        covered = counts["rows.subjobs_executed"]
    assert recorded == reported == covered
    assert system.ac.idle_resets_applied == reported
    assert (counts["ir.reports_sent"] > 0) == (covered > 0)
