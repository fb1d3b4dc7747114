"""Unit tests for the metrics collector and the overhead accounting."""

import pytest

from repro.experiments.figure8 import Figure8Result
from repro.metrics.overhead import (
    OverheadAccounting,
    PAPER_FIGURE8_USEC,
    ROW_AC_WITH_LB_NO_REALLOC,
    ROW_AC_WITH_LB_REALLOC,
    ROW_AC_WITHOUT_LB,
    ROW_LB_NO_REALLOC,
    ROW_LB_REALLOC,
)
from repro.metrics.ratio import MetricsCollector
from repro.sched.task import Job, TaskKind
from repro.sim.kernel import USEC

from tests.taskutil import make_task


def job_of(task, index=0, arrival=0.0):
    return Job(task, index, arrival, task.subtasks[0].home)


# ----------------------------------------------------------------------
# Accepted utilization ratio
# ----------------------------------------------------------------------
class TestMetricsCollector:
    def test_empty_ratio_is_one(self):
        assert MetricsCollector().accepted_utilization_ratio == 1.0

    def test_ratio_weights_by_utilization(self):
        metrics = MetricsCollector()
        heavy = make_task("H", TaskKind.APERIODIC, deadline=1.0, execs=(0.4,))
        light = make_task("L", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,))
        for task in (heavy, light):
            metrics.on_arrival(job_of(task))
        metrics.on_release(job_of(heavy))
        metrics.on_rejection(job_of(light))
        assert metrics.accepted_utilization_ratio == pytest.approx(0.8)

    def test_per_kind_breakdown(self):
        metrics = MetricsCollector()
        p = make_task("P", TaskKind.PERIODIC, deadline=1.0, execs=(0.2,))
        a = make_task("A", TaskKind.APERIODIC, deadline=1.0, execs=(0.2,))
        metrics.on_arrival(job_of(p))
        metrics.on_arrival(job_of(a))
        metrics.on_release(job_of(p))
        metrics.on_rejection(job_of(a))
        periodic = metrics.per_kind[TaskKind.PERIODIC]
        aperiodic = metrics.per_kind[TaskKind.APERIODIC]
        assert (periodic.released_jobs, periodic.rejected_jobs) == (1, 0)
        assert (aperiodic.released_jobs, aperiodic.rejected_jobs) == (0, 1)
        assert metrics.arrived_jobs == 2
        assert metrics.released_jobs == 1
        assert metrics.rejected_jobs == 1

    def test_completion_records_response_time(self):
        metrics = MetricsCollector()
        t = make_task("T", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,))
        job = job_of(t)
        job.completed_at = 0.4
        metrics.on_completion(job)
        assert metrics.completed_jobs == 1
        assert metrics.response_times.mean == pytest.approx(0.4)

    def test_miss_detection(self):
        metrics = MetricsCollector()
        t = make_task("T", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,))
        ok = job_of(t)
        ok.completed_at = 0.9
        late = job_of(t, index=1)
        late.completed_at = 1.5
        metrics.on_completion(ok)
        metrics.on_completion(late)
        assert metrics.deadline_misses == 1
        assert metrics.response_times.count == 2

    def test_uncompleted_job_has_no_response_time(self):
        metrics = MetricsCollector()
        t = make_task("T", TaskKind.APERIODIC, deadline=1.0, execs=(0.1,))
        metrics.on_completion(job_of(t))  # completed_at is None
        assert metrics.completed_jobs == 1
        assert metrics.response_times.count == 0
        assert metrics.deadline_misses == 0


# ----------------------------------------------------------------------
# Overhead accounting (Figure 8 rows)
# ----------------------------------------------------------------------
class TestOverheadAccounting:
    def test_no_lb_path_classification(self):
        acc = OverheadAccounting()
        acc.record_admission_path(1000 * USEC, lb_enabled=False, reallocated=False)
        rows = {r.name for r in acc.rows()}
        assert rows == {ROW_AC_WITHOUT_LB}

    def test_lb_no_realloc_classification(self):
        acc = OverheadAccounting()
        acc.record_admission_path(1100 * USEC, lb_enabled=True, reallocated=False)
        rows = {r.name for r in acc.rows()}
        assert rows == {ROW_AC_WITH_LB_NO_REALLOC, ROW_LB_NO_REALLOC}

    def test_lb_realloc_classification(self):
        acc = OverheadAccounting()
        acc.record_admission_path(1200 * USEC, lb_enabled=True, reallocated=True)
        rows = {r.name for r in acc.rows()}
        assert rows == {ROW_AC_WITH_LB_REALLOC, ROW_LB_REALLOC}

    def test_rows_in_microseconds(self):
        acc = OverheadAccounting()
        acc.record_admission_path(1114 * USEC, lb_enabled=False, reallocated=False)
        row = acc.row(ROW_AC_WITHOUT_LB)
        assert row.mean_usec == pytest.approx(1114.0)
        assert row.samples == 1

    def test_empty_row_is_none(self):
        acc = OverheadAccounting()
        assert acc.row(ROW_AC_WITHOUT_LB) is None
        assert acc.rows() == []

    def test_ir_and_comm_rows(self):
        acc = OverheadAccounting()
        acc.record_ir_ac_side(17 * USEC)
        acc.record_ir_other(662 * USEC)
        acc.record_communication(322 * USEC)
        names = {r.name for r in acc.rows()}
        assert names == {"ir_ac_side", "ir_other_part", "communication_delay"}

    def test_max_service_delay_excludes_ir_and_comm(self):
        # Figure 8's headline maximum reads the admission-path rows only.
        acc = OverheadAccounting()
        acc.record_admission_path(1000 * USEC, lb_enabled=False, reallocated=False)
        acc.record_admission_path(1500 * USEC, lb_enabled=True, reallocated=True)
        acc.record_ir_ac_side(3000 * USEC)
        acc.record_ir_other(5000 * USEC)
        acc.record_communication(4000 * USEC)
        result = Figure8Result(duration=1.0, rows=acc.rows())
        assert result.max_service_delay_usec() == pytest.approx(1500.0)
        empty = Figure8Result(duration=1.0)
        assert empty.max_service_delay_usec() == pytest.approx(0.0)

    def test_paper_reference_table_complete(self):
        assert set(PAPER_FIGURE8_USEC) == {
            "ac_without_lb",
            "ac_with_lb_no_realloc",
            "ac_with_lb_realloc",
            "lb_no_realloc",
            "lb_realloc",
            "ir_ac_side",
            "ir_other_part",
            "communication_delay",
        }
