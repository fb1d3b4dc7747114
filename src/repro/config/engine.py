"""Front-end configuration engine (paper section 6).

The paper's engine turns a workload specification and the four
questionnaire answers into a deployment plan for DAnCE.  Here the
configured run is a :class:`repro.api.Scenario`, and
:class:`repro.api.Session` deploys it through
:class:`~repro.core.middleware.MiddlewareSystem`, the one assembler:

1. Accept a workload (each end-to-end task and where its subtasks
   execute), e.g. the one a scenario file describes.
2. Ask (or accept) the four application-characteristics answers.
3. Map characteristics to service strategies (Table 1), with
   feasibility clamps reported as notes — invalid combinations cannot
   be produced.
4. Note where load balancing has no replica to choose and which tasks
   fail AUB condition (1) under home assignment.
5. Emit the decision as a scenario; the assembler gives each subtask
   its EDMS priority in order of end-to-end deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.config.characteristics import ApplicationCharacteristics
from repro.config.mapping import DEFAULT_COMBO, map_characteristics
from repro.core.strategies import StrategyCombo
from repro.sched.offline import analyze_workload
from repro.workloads.model import Workload


@dataclass(frozen=True)
class EngineResult:
    """Everything the configuration engine produced for one application."""

    workload: Workload
    combo: StrategyCombo
    notes: List[str] = field(default_factory=list)


class ConfigurationEngine:
    """Front end: workload and characteristics in, configured scenario out."""

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(
        self,
        workload: Workload,
        characteristics: Optional[ApplicationCharacteristics] = None,
        combo: Optional[StrategyCombo] = None,
    ) -> EngineResult:
        """Choose a valid strategy combination for ``workload``.

        Strategy selection precedence: an explicit ``combo`` wins (it is
        still validated); otherwise ``characteristics`` are mapped through
        Table 1; otherwise the paper's default configuration (per-task
        admission control, idle resetting and load balancing) applies.
        """
        notes: List[str] = []
        if combo is not None:
            combo.validate()
        elif characteristics is not None:
            combo, notes = map_characteristics(characteristics)
        else:
            combo = DEFAULT_COMBO
            notes = ["no characteristics given: using the default per-task "
                     "configuration (T_T_T)"]
        if combo.lb.value != "N" and not workload.replicated():
            notes.append(
                "warning: load balancing is enabled but no subtask declares "
                "replicas; the LB will always choose home processors"
            )
        feasibility = analyze_workload(workload)
        over = feasibility.unschedulable_tasks()
        if over:
            hint = (
                " (greedy replica placement would fix some of them — "
                "consider enabling load balancing)"
                if feasibility.load_balancing_helps() and combo.lb.value == "N"
                else ""
            )
            notes.append(
                "feasibility: with all tasks current, AUB condition (1) "
                f"fails for {', '.join(over)} under home assignment; those "
                f"tasks will see admission rejections at peak load{hint}"
            )
        return EngineResult(workload=workload, combo=combo, notes=notes)

    # ------------------------------------------------------------------
    # Scenario emission (repro.api integration)
    # ------------------------------------------------------------------
    def scenario(self, result: EngineResult, **scenario_fields):
        """Emit the engine's decision as a :class:`repro.api.Scenario`.

        The scenario embeds the configured workload and the mapped
        strategy combination; extra keyword arguments (``duration``,
        ``seed``, ``cost_model``, ...) pass through to the scenario,
        which validates them.  Run it with :class:`repro.api.Session`.
        """
        from repro.api.scenario import Scenario, WorkloadSource

        return Scenario(
            workload=WorkloadSource.explicit(result.workload),
            combo=result.combo.label,
            **scenario_fields,
        )
