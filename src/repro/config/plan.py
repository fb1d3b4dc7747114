"""Deployment plan data structures and the plan builder.

A :class:`DeploymentPlan` is the in-memory form of the XML assembly
descriptor the paper's configuration engine emits for DAnCE: component
instances (with ``configProperty`` settings), facet/receptacle and event
connections, the processor topology, and the embedded workload (so a
deployer can rebuild the system and its arrival generation from the plan
alone).

:func:`build_deployment_plan` performs the paper's generation step,
including assigning EDMS priorities "in order of tasks' end-to-end
deadlines" and writing them into the subtask instances' properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.ccm.events import (
    TOPIC_IDLE_RESETTING,
    TOPIC_TASK_ARRIVE,
    accept_topic,
    reject_topic,
    trigger_topic,
)
from repro.config.workload_spec import workload_to_json
from repro.core.strategies import ACStrategy, LBStrategy, StrategyCombo
from repro.errors import ConfigurationError
from repro.sched.edms import edms_priority
from repro.workloads.model import Workload

#: Implementation names of the six paper components, as a plan names them.
IMPL_AC = "repro.AdmissionController"
IMPL_LB = "repro.LoadBalancer"
IMPL_TE = "repro.TaskEffector"
IMPL_IR = "repro.IdleResetter"
IMPL_FI_SUBTASK = "repro.FISubtask"
IMPL_LAST_SUBTASK = "repro.LastSubtask"


@dataclass(frozen=True)
class ComponentInstance:
    """One component instance in the plan."""

    instance_id: str
    implementation: str
    node: str
    properties: Tuple[Tuple[str, Any], ...] = ()

    def property_dict(self) -> Dict[str, Any]:
        return dict(self.properties)

    @staticmethod
    def make(
        instance_id: str,
        implementation: str,
        node: str,
        properties: Dict[str, Any],
    ) -> "ComponentInstance":
        return ComponentInstance(
            instance_id=instance_id,
            implementation=implementation,
            node=node,
            properties=tuple(sorted(properties.items())),
        )


@dataclass(frozen=True)
class Connection:
    """A port connection between two instances.

    ``kind`` is ``"facet"`` (synchronous receptacle -> facet) or
    ``"event"`` (event source -> topic consumed by the target's sink).
    For event connections ``target_port`` holds the topic name.
    """

    name: str
    kind: str
    source_instance: str
    source_port: str
    target_instance: str
    target_port: str

    def __post_init__(self) -> None:
        if self.kind not in ("facet", "event"):
            raise ConfigurationError(
                f"connection {self.name!r}: kind must be facet or event"
            )


@dataclass(frozen=True)
class DeploymentPlan:
    """A complete deployment: instances + connections + topology."""

    label: str
    manager_node: str
    app_nodes: Tuple[str, ...]
    instances: Tuple[ComponentInstance, ...]
    connections: Tuple[Connection, ...]
    workload_json: str

    def instance(self, instance_id: str) -> ComponentInstance:
        for inst in self.instances:
            if inst.instance_id == instance_id:
                return inst
        raise ConfigurationError(f"plan has no instance {instance_id!r}")

    def instances_on(self, node: str) -> List[ComponentInstance]:
        return [inst for inst in self.instances if inst.node == node]

    def instances_of(self, implementation: str) -> List[ComponentInstance]:
        return [
            inst
            for inst in self.instances
            if inst.implementation == implementation
        ]

    def combo(self) -> StrategyCombo:
        """The strategy combination encoded in the AC instance."""
        acs = self.instances_of(IMPL_AC)
        if len(acs) != 1:
            raise ConfigurationError(
                f"plan must contain exactly one AC instance, found {len(acs)}"
            )
        props = acs[0].property_dict()
        try:
            parts = [props[f"{service}_strategy"] for service in ("ac", "ir", "lb")]
        except KeyError as exc:
            raise ConfigurationError(f"AC instance lacks property {exc}") from None
        return StrategyCombo.from_label("_".join(map(str, parts)))


def build_deployment_plan(
    workload: Workload,
    combo: StrategyCombo,
    label: Optional[str] = None,
) -> DeploymentPlan:
    """Generate the deployment plan for ``workload`` under ``combo``.

    Mirrors the paper's configuration engine output: one AC (and LB if
    enabled) on the task manager, one TE + IR per application processor,
    one subtask component per (task, stage, eligible processor) with EDMS
    priority written into its properties, and all port connections.
    """
    combo.validate()
    instances: List[ComponentInstance] = []
    connections: List[Connection] = []

    instances.append(
        ComponentInstance.make(
            "Central-AC",
            IMPL_AC,
            workload.manager_node,
            {
                "ac_strategy": combo.ac.value,
                "ir_strategy": combo.ir.value,
                "lb_strategy": combo.lb.value,
            },
        )
    )
    lb_enabled = combo.lb is not LBStrategy.NONE
    if lb_enabled:
        instances.append(
            ComponentInstance.make(
                "Central-LB",
                IMPL_LB,
                workload.manager_node,
                {"strategy": combo.lb.value},
            )
        )
        connections.append(
            Connection(
                name="ac_locator",
                kind="facet",
                source_instance="Central-AC",
                source_port="locator",
                target_instance="Central-LB",
                target_port="location",
            )
        )
        connections.append(
            Connection(
                name="lb_state",
                kind="facet",
                source_instance="Central-LB",
                source_port="admission_state",
                target_instance="Central-AC",
                target_port="admission_state",
            )
        )

    release_mode = (
        "per_task"
        if combo.ac is ACStrategy.PER_TASK and combo.lb is not LBStrategy.PER_JOB
        else "per_job"
    )
    for node in workload.app_nodes:
        te_id = f"TE-{node}"
        ir_id = f"IR-{node}"
        instances.append(
            ComponentInstance.make(
                te_id,
                IMPL_TE,
                node,
                {"processor_id": node, "release_mode": release_mode},
            )
        )
        instances.append(
            ComponentInstance.make(
                ir_id,
                IMPL_IR,
                node,
                {"processor_id": node, "strategy": combo.ir.value},
            )
        )
        connections.append(
            Connection(
                name=f"task_arrive_{node}",
                kind="event",
                source_instance=te_id,
                source_port="decision_request",
                target_instance="Central-AC",
                target_port=TOPIC_TASK_ARRIVE,
            )
        )
        connections.append(
            Connection(
                name=f"accept_{node}",
                kind="event",
                source_instance="Central-AC",
                source_port="decisions",
                target_instance=te_id,
                target_port=accept_topic(node),
            )
        )
        connections.append(
            Connection(
                name=f"reject_{node}",
                kind="event",
                source_instance="Central-AC",
                source_port="decisions",
                target_instance=te_id,
                target_port=reject_topic(node),
            )
        )
        connections.append(
            Connection(
                name=f"idle_reset_{node}",
                kind="event",
                source_instance=ir_id,
                source_port="idle_resetting",
                target_instance="Central-AC",
                target_port=TOPIC_IDLE_RESETTING,
            )
        )

    for task in workload.tasks:
        priority = edms_priority(task)
        last_index = task.n_subtasks - 1
        for subtask in task.subtasks:
            impl = (
                IMPL_LAST_SUBTASK if subtask.index == last_index else IMPL_FI_SUBTASK
            )
            for node in subtask.eligible:
                inst_id = f"{task.task_id}.s{subtask.index}@{node}"
                instances.append(
                    ComponentInstance.make(
                        inst_id,
                        impl,
                        node,
                        {
                            "task_id": task.task_id,
                            "subtask_index": subtask.index,
                            "execution_time": subtask.execution_time,
                            "priority": priority,
                            "ir_mode": combo.ir.value,
                        },
                    )
                )
                connections.append(
                    Connection(
                        name=f"ir_complete_{inst_id}",
                        kind="facet",
                        source_instance=inst_id,
                        source_port="ir_complete",
                        target_instance=f"IR-{node}",
                        target_port="complete",
                    )
                )
                if subtask.index < last_index:
                    next_sub = task.subtasks[subtask.index + 1]
                    for next_node in next_sub.eligible:
                        connections.append(
                            Connection(
                                name=(
                                    f"trigger_{task.task_id}_"
                                    f"{subtask.index}_{node}_to_{next_node}"
                                ),
                                kind="event",
                                source_instance=inst_id,
                                source_port="trigger_out",
                                target_instance=(
                                    f"{task.task_id}.s{next_sub.index}@{next_node}"
                                ),
                                target_port=trigger_topic(
                                    task.task_id, next_sub.index
                                ),
                            )
                        )

    return DeploymentPlan(
        label=label or f"plan_{combo.label}",
        manager_node=workload.manager_node,
        app_nodes=tuple(workload.app_nodes),
        instances=tuple(instances),
        connections=tuple(connections),
        workload_json=workload_to_json(workload, indent=None),
    )
