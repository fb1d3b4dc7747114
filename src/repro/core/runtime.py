"""Shared runtime environment for a deployed middleware system.

Every service component receives the same :class:`RuntimeEnv` at
construction: simulation kernel, network, cost model, RNG streams, metric
collectors, and registries of deployed peer components.  It plays the role
CIAO's container services + naming play in the paper — the way a TE finds
"the local IR instance" or the AC finds "the TE on processor 3".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.core.cost_model import CostModel
from repro.core.strategies import StrategyCombo
from repro.metrics.overhead import OverheadAccounting
from repro.metrics.ratio import MetricsCollector
from repro.metrics.registry import MetricsRegistry
from repro.net.federation import FederatedEventChannel
from repro.net.network import Network
from repro.sched.task import TaskSpec
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.idle_resetter import IdleResetterComponent
    from repro.core.subtask import _SubtaskComponentBase
    from repro.core.task_effector import TaskEffectorComponent


@dataclass
class RuntimeEnv:
    """Deployment-wide shared state and component registries."""

    sim: Simulator
    network: Network
    federation: FederatedEventChannel
    combo: StrategyCombo
    cost_model: CostModel
    rngs: RngRegistry
    metrics: MetricsCollector
    overhead: OverheadAccounting
    tracer: Tracer
    manager_node: str
    app_nodes: List[str]
    # Observability registry; None means the run is unarmed and every
    # publish site stays on the seed-identical no-metrics path.
    metrics_registry: Optional[MetricsRegistry] = None
    tasks: Dict[str, TaskSpec] = field(default_factory=dict)
    task_effectors: Dict[str, "TaskEffectorComponent"] = field(default_factory=dict)
    idle_resetters: Dict[str, "IdleResetterComponent"] = field(default_factory=dict)
    subtask_instances: Dict[Tuple[str, int, str], "_SubtaskComponentBase"] = field(
        default_factory=dict
    )

    #: RNG stream for service-operation cost jitter, resolved once.
    cost_rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.cost_rng = self.rngs.stream("cost")

    def audit_rngs(self) -> None:
        """Fail on unattributed RNG draws (``REPRO_SANITIZE=1`` only).

        Called at run boundaries (see ``MiddlewareSystem._results``); a
        no-op unless the registry was constructed under the sanitizer.
        """
        self.rngs.audit()

    def subtask_instance(self, task_id: str, index: int, node: str):
        """Look up the deployed subtask component for (task, stage, node)."""
        try:
            return self.subtask_instances[(task_id, index, node)]
        except KeyError:
            raise KeyError(
                f"no subtask component deployed for task {task_id!r} "
                f"stage {index} on node {node!r}"
            ) from None
