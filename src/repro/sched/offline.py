"""Offline (pre-deployment) schedulability analysis.

The paper's services make *on-line* admission decisions; this module
answers the complementary design-time question: if all tasks of a
workload were current simultaneously under their home assignment, which
end-to-end tasks would satisfy AUB condition (1)?  The configuration
engine surfaces this as a feasibility report so a developer sees
structural overload (a task whose path can never be admitted at the
calibrated utilization) before deploying, and the LB axis can be judged:
the report is also computed under best-case greedy placement over
replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.numeric import ordered_sum
from repro.sched.aub import aub_term, task_condition_holds
from repro.sched.edms import assign_priorities
from repro.sched.task import TaskSpec
from repro.workloads.model import Workload


@dataclass(frozen=True)
class TaskFeasibility:
    """Condition (1) evaluation for one task under one placement."""

    task_id: str
    visits: Tuple[str, ...]
    condition_sum: float
    schedulable: bool
    priority_level: int


@dataclass
class FeasibilityReport:
    """Design-time schedulability picture of a whole workload."""

    utilization: Dict[str, float] = field(default_factory=dict)
    home_results: List[TaskFeasibility] = field(default_factory=list)
    balanced_results: List[TaskFeasibility] = field(default_factory=list)

    @property
    def all_schedulable_at_home(self) -> bool:
        return all(r.schedulable for r in self.home_results)

    @property
    def all_schedulable_balanced(self) -> bool:
        return all(r.schedulable for r in self.balanced_results)

    def unschedulable_tasks(self, balanced: bool = False) -> List[str]:
        results = self.balanced_results if balanced else self.home_results
        return [r.task_id for r in results if not r.schedulable]

    def load_balancing_helps(self) -> bool:
        """True when greedy replica placement fixes at least one task that
        is unschedulable at home."""
        home_bad = set(self.unschedulable_tasks(balanced=False))
        balanced_bad = set(self.unschedulable_tasks(balanced=True))
        return bool(home_bad - balanced_bad)


def _evaluate(
    workload: Workload,
    assignments: Dict[str, Dict[int, str]],
    levels: Dict[str, int],
) -> Tuple[Dict[str, float], List[TaskFeasibility]]:
    """Worst-case (all tasks current) utilizations and per-task checks."""
    utilization: Dict[str, float] = {n: 0.0 for n in workload.app_nodes}
    for task in workload.tasks:
        assignment = assignments[task.task_id]
        for subtask in task.subtasks:
            utilization[assignment[subtask.index]] += task.subtask_utilization(
                subtask.index
            )
    results = []
    for task in workload.tasks:
        assignment = assignments[task.task_id]
        visits = tuple(task.visited_processors(assignment))
        utils = [utilization[n] for n in visits]
        total = (
            ordered_sum(aub_term(u) for u in utils)
            if all(u < 1.0 for u in utils)
            else float("inf")
        )
        results.append(
            TaskFeasibility(
                task_id=task.task_id,
                visits=visits,
                condition_sum=total,
                schedulable=task_condition_holds(utils),
                priority_level=levels[task.task_id],
            )
        )
    return utilization, results


def _greedy_balanced_assignments(
    workload: Workload,
) -> Dict[str, Dict[int, str]]:
    """Greedy lowest-utilization placement over each subtask's eligible
    processors — the LB component's heuristic applied statically."""
    utilization: Dict[str, float] = {n: 0.0 for n in workload.app_nodes}
    assignments: Dict[str, Dict[int, str]] = {}
    for task in workload.tasks:
        assignment: Dict[int, str] = {}
        for subtask in task.subtasks:
            u = task.subtask_utilization(subtask.index)
            best = min(subtask.eligible, key=lambda n: (utilization[n], n))
            assignment[subtask.index] = best
            utilization[best] += u
        assignments[task.task_id] = assignment
    return assignments


def analyze_workload(workload: Workload) -> FeasibilityReport:
    """Produce the full design-time feasibility report."""
    levels = assign_priorities(workload.tasks)
    home = {t.task_id: t.home_assignment() for t in workload.tasks}
    report = FeasibilityReport()
    report.utilization, report.home_results = _evaluate(workload, home, levels)
    balanced = _greedy_balanced_assignments(workload)
    _balanced_util, report.balanced_results = _evaluate(
        workload, balanced, levels
    )
    return report


def format_report(report: FeasibilityReport) -> str:
    """Human-readable rendering for the CLI and configuration engine."""
    lines = ["Offline AUB feasibility (all tasks current, worst case)"]
    lines.append("per-processor synthetic utilization (home assignment):")
    for node, util in sorted(report.utilization.items()):
        lines.append(f"  {node}: {util:.3f}")
    lines.append("per-task condition (1) sums (<= 1 is schedulable):")
    for home, balanced in zip(report.home_results, report.balanced_results):
        mark = "ok " if home.schedulable else "OVER"
        improved = (
            "  [balanced placement fixes this]"
            if not home.schedulable and balanced.schedulable
            else ""
        )
        lines.append(
            f"  {mark} {home.task_id:12s} prio={home.priority_level} "
            f"sum={home.condition_sum:.3f} visits={'>'.join(home.visits)}"
            f"{improved}"
        )
    return "\n".join(lines)
