"""Front-end configuration engine (paper section 6).

The engine ties the configuration pipeline together:

1. Read/accept a workload specification (each end-to-end task and where
   its subtasks execute).
2. Ask (or accept) the four application-characteristics answers.
3. Map characteristics to service strategies (Table 1), with feasibility
   clamps reported as notes.
4. Build the XML deployment plan with EDMS priorities assigned in order
   of end-to-end deadlines.
5. Validate the plan — invalid strategy combinations cannot be produced.
6. Optionally deploy it: the plan, or its XML, is checked and built by
   :func:`repro.config.dance.deploy_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Mapping, Optional, Union

from repro.config.characteristics import ApplicationCharacteristics
from repro.config.dance import deploy_plan
from repro.config.mapping import DEFAULT_COMBO, map_characteristics
from repro.config.plan import DeploymentPlan, build_deployment_plan
from repro.config.validation import validate_plan
from repro.config.workload_spec import load_workload
from repro.config.xml_io import to_xml
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo
from repro.sched.offline import analyze_workload
from repro.workloads.model import Workload


@dataclass(frozen=True)
class EngineResult:
    """Everything the configuration engine produced for one application."""

    workload: Workload
    combo: StrategyCombo
    plan: DeploymentPlan
    xml: str
    notes: List[str] = field(default_factory=list)


class ConfigurationEngine:
    """Front end: workload and characteristics in, checked plan out."""

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(
        self,
        workload: Workload,
        characteristics: Optional[ApplicationCharacteristics] = None,
        combo: Optional[StrategyCombo] = None,
    ) -> EngineResult:
        """Produce a validated deployment plan for ``workload``.

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
        plan = build_deployment_plan(workload, combo)
        validate_plan(plan)
        return EngineResult(
            workload=workload,
            combo=combo,
            plan=plan,
            xml=to_xml(plan),
            notes=notes,
        )

    def configure_from_files(
        self,
        workload_path: Union[str, Path],
        answers: Optional[Mapping[str, str]] = None,
    ) -> EngineResult:
        """File-based entry point: workload spec + questionnaire answers."""
        workload = load_workload(workload_path)
        characteristics = (
            ApplicationCharacteristics.from_answers(answers)
            if answers is not None
            else None
        )
        return self.configure(workload, characteristics)

    # ------------------------------------------------------------------
    # Scenario emission (repro.api integration)
    # ------------------------------------------------------------------
    def scenario(self, result: EngineResult, **scenario_fields):
        """Emit the engine's decision as a :class:`repro.api.Scenario`.

        The scenario embeds the configured workload and the mapped
        strategy combination; extra keyword arguments (``duration``,
        ``seed``, ``cost_model``, ...) pass through to the scenario,
        which validates them.  Run it with :class:`repro.api.Session`,
        which builds the same system as :meth:`deploy` of ``result``.
        """
        from repro.api.scenario import Scenario, WorkloadSource

        return Scenario(
            workload=WorkloadSource.explicit(result.workload),
            combo=result.combo.label,
            **scenario_fields,
        )

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(self, result: EngineResult, **runtime_kwargs) -> MiddlewareSystem:
        """Deploy an engine result's plan (see :func:`deploy_plan`)."""
        return deploy_plan(result.plan, **runtime_kwargs)

    def deploy_xml(self, xml_text: str, **runtime_kwargs) -> MiddlewareSystem:
        """Deploy from an XML descriptor string (see :func:`deploy_plan`)."""
        return deploy_plan(xml_text, **runtime_kwargs)
