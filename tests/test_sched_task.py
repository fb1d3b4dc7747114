"""Unit tests for the end-to-end task model."""

import pytest

from repro.errors import TaskModelError
from repro.sched.task import Job, JobStatus, SubtaskSpec, TaskKind, TaskSpec

from tests.taskutil import make_task


# ----------------------------------------------------------------------
# SubtaskSpec
# ----------------------------------------------------------------------
class TestSubtaskSpec:
    def test_eligible_lists_home_first(self):
        s = SubtaskSpec(0, 0.1, "a", ("b", "c"))
        assert s.eligible == ("a", "b", "c")

    def test_negative_index_rejected(self):
        with pytest.raises(TaskModelError):
            SubtaskSpec(-1, 0.1, "a")

    def test_nonpositive_execution_rejected(self):
        with pytest.raises(TaskModelError):
            SubtaskSpec(0, 0.0, "a")

    def test_home_in_replicas_rejected(self):
        with pytest.raises(TaskModelError):
            SubtaskSpec(0, 0.1, "a", ("a",))

    def test_duplicate_replicas_rejected(self):
        with pytest.raises(TaskModelError):
            SubtaskSpec(0, 0.1, "a", ("b", "b"))


# ----------------------------------------------------------------------
# TaskSpec
# ----------------------------------------------------------------------
class TestTaskSpec:
    def test_periodic_requires_period(self):
        with pytest.raises(TaskModelError):
            TaskSpec(
                "T",
                TaskKind.PERIODIC,
                1.0,
                (SubtaskSpec(0, 0.1, "a"),),
                period=None,
            )

    def test_aperiodic_must_not_have_period(self):
        with pytest.raises(TaskModelError):
            TaskSpec(
                "T",
                TaskKind.APERIODIC,
                1.0,
                (SubtaskSpec(0, 0.1, "a"),),
                period=1.0,
            )

    def test_deadline_must_be_positive(self):
        with pytest.raises(TaskModelError):
            make_task(deadline=0.0)

    def test_empty_task_id_rejected(self):
        with pytest.raises(TaskModelError):
            make_task(task_id="")

    def test_needs_subtasks(self):
        with pytest.raises(TaskModelError):
            TaskSpec("T", TaskKind.APERIODIC, 1.0, ())

    def test_subtask_indices_must_be_consecutive(self):
        with pytest.raises(TaskModelError):
            TaskSpec(
                "T",
                TaskKind.APERIODIC,
                1.0,
                (SubtaskSpec(1, 0.1, "a"),),
            )

    def test_total_execution_cannot_exceed_deadline(self):
        with pytest.raises(TaskModelError):
            make_task(deadline=0.1, execs=(0.06, 0.06), homes=("a", "b"))

    def test_negative_phase_rejected(self):
        with pytest.raises(TaskModelError):
            make_task(phase=-1.0)

    def test_subtask_utilization(self):
        task = make_task(deadline=2.0, execs=(0.5, 0.1), homes=("a", "b"))
        assert task.subtask_utilization(0) == pytest.approx(0.25)
        assert task.subtask_utilization(1) == pytest.approx(0.05)
        assert task.total_utilization == pytest.approx(0.3)

    def test_total_utilization_adds_left_to_right(self):
        # (0.1 + 0.2) + 0.3 is 0.6000000000000001; Python 3.12's
        # compensated sum() gives 0.6.  The exact float is the contract:
        # a scenario must give the same floats on every interpreter.
        task = make_task(execs=(0.1, 0.2, 0.3), homes=("a", "b", "c"))
        # repro-lint: disable=RL004
        assert task.total_utilization == (0.1 + 0.2) + 0.3
        assert repr(task.total_utilization) == "0.6000000000000001"

    def test_home_assignment(self):
        task = make_task(execs=(0.1, 0.1), homes=("a", "b"))
        assert task.home_assignment() == {0: "a", 1: "b"}

    def test_visited_processors_includes_repeats(self):
        task = make_task(execs=(0.1, 0.1), homes=("a", "a"))
        assert task.visited_processors(task.home_assignment()) == ["a", "a"]

    def test_is_periodic(self):
        assert make_task(kind=TaskKind.PERIODIC).is_periodic
        assert not make_task(kind=TaskKind.APERIODIC).is_periodic


# ----------------------------------------------------------------------
# Job
# ----------------------------------------------------------------------
class TestJob:
    def test_key_and_deadline(self):
        task = make_task(deadline=2.0)
        job = Job(task, 3, arrival_time=10.0, arrival_node="a")
        assert job.key == ("T1", 3)
        assert job.absolute_deadline == 12.0

    def test_initial_status(self):
        job = Job(make_task(), 0, 0.0, "a")
        assert job.status is JobStatus.ARRIVED
        assert job.response_time is None
        assert job.met_deadline is None

    def test_response_time_and_deadline_check(self):
        task = make_task(deadline=1.0)
        job = Job(task, 0, 5.0, "a")
        job.completed_at = 5.8
        assert job.response_time == pytest.approx(0.8)
        assert job.met_deadline
        job.completed_at = 6.5
        assert not job.met_deadline

    def test_utilization_matches_task(self):
        task = make_task(deadline=1.0, execs=(0.1, 0.2), homes=("a", "b"))
        job = Job(task, 0, 0.0, "a")
        assert job.utilization == pytest.approx(0.3)
