"""Hand-built minimal runtime environments for component unit tests.

``make_env`` wires the full infrastructure (sim, network, federation,
processors, containers) for a given node list without deploying any
components, so tests can install and probe individual service components
in isolation.  Like a deployment, it binds each application node's one
Trigger route, so subtask components installed by hand trigger each
other.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.ccm.container import Container
from repro.core.cost_model import CostModel
from repro.core.runtime import RuntimeEnv
from repro.core.strategies import StrategyCombo
from repro.core.subtask import bind_trigger_routes
from repro.cpu.processor import Processor
from repro.metrics.overhead import OverheadAccounting
from repro.metrics.ratio import MetricsCollector
from repro.net.federation import FederatedEventChannel
from repro.net.latency import ConstantDelay
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


def make_env(
    app_nodes=("app1", "app2"),
    manager: str = "task_manager",
    combo_label: str = "J_N_N",
    delay: float = 0.001,
    cost_model: CostModel = None,
    seed: int = 0,
) -> Tuple[RuntimeEnv, Dict[str, Container]]:
    sim = Simulator()
    rngs = RngRegistry(seed)
    network = Network(sim, rngs.stream("network"), ConstantDelay(delay))
    federation = FederatedEventChannel(network)
    containers: Dict[str, Container] = {}
    for node in (manager,) + tuple(app_nodes):
        federation.add_node(node)
        containers[node] = Container(Processor(sim, node), federation)
    env = RuntimeEnv(
        sim=sim,
        network=network,
        federation=federation,
        combo=StrategyCombo.from_label(combo_label),
        cost_model=cost_model or CostModel.zero(),
        rngs=rngs,
        metrics=MetricsCollector(),
        overhead=OverheadAccounting(),
        manager_node=manager,
        app_nodes=list(app_nodes),
    )
    bind_trigger_routes(env)
    return env, containers
