"""The paper's primary contribution: configurable middleware services.

Six configurable components (paper Figure 3), implemented over the
CCM-lite substrate:

* :class:`~repro.core.task_effector.TaskEffectorComponent` (TE) — holds
  arriving jobs, awaits the admission decision, releases jobs.
* :class:`~repro.core.admission_controller.AdmissionControllerComponent`
  (AC) — AUB-based on-line admission control, per task or per job.
* :class:`~repro.core.load_balancer.LoadBalancerComponent` (LB) — assigns
  subtasks to the lowest-synthetic-utilization eligible processor.
* :class:`~repro.core.idle_resetter.IdleResetterComponent` (IR) — reports
  completed subjobs from a lowest-priority idle-detector thread.
* :class:`~repro.core.subtask.FISubtaskComponent` and
  :class:`~repro.core.subtask.LastSubtaskComponent` — execute subjobs at
  EDMS priority and trigger successors.  The paper deploys one per (task,
  stage, eligible processor); here each is a row of its node's one
  :class:`~repro.core.subtask.StageHostComponent`.

:class:`~repro.core.middleware.MiddlewareSystem` assembles a whole
distributed deployment (task manager + application processors) for a
workload and a strategy combination.
"""

from repro.core.cost_model import CostModel
from repro.core.middleware import MiddlewareSystem, SystemResults
from repro.core.strategies import (
    ACStrategy,
    IRStrategy,
    LBStrategy,
    StrategyCombo,
    all_combinations,
    valid_combinations,
)

__all__ = [
    "CostModel",
    "MiddlewareSystem",
    "SystemResults",
    "ACStrategy",
    "IRStrategy",
    "LBStrategy",
    "StrategyCombo",
    "all_combinations",
    "valid_combinations",
]
