"""repro.api — the single public surface for building and running deployments.

Build a :class:`Scenario` (declaratively, or with the fluent builder),
hand it to a :class:`Session`, get a typed :class:`RunResult` back::

    from repro.api import Scenario, Session

    scenario = (
        Scenario.builder()
        .random_workload(seed=2008)
        .combo("J_J_J")
        .duration(60.0)
        .seed(7)
        .build()
    )
    result = Session(scenario).run()
    print(result.accepted_utilization_ratio)

Scenarios are frozen, validated and JSON-round-trip serializable
(``scenario.to_json_str()`` / ``Scenario.from_json_str``), strategies are
resolved by name through the :func:`default_registry`, and grids of
scenarios fan out over all cores through :class:`ExperimentSuite` with
results bit-identical to a serial run.

``MiddlewareSystem(...)``, the assembler a Session deploys through,
returns loosely-shaped results — see ``docs/API.md`` for how they map
onto :class:`RunResult`.
"""

from repro.api.registry import REGISTRY, StrategyRegistry, default_registry
from repro.api.scenario import (
    ENGINE_DISTRIBUTED,
    ENGINE_MIDDLEWARE,
    ENGINE_REPLAY,
    Burst,
    DelaySpike,
    Disturbance,
    MessageLoss,
    NodeCrash,
    Partition,
    Scenario,
    ScenarioBuilder,
    Slowdown,
    WorkloadSource,
    disturbance_from_json,
    cost_model_from_json,
    cost_model_to_json,
    delay_model_from_json,
    delay_model_to_json,
    workload_from_json,
    workload_to_json,
)
from repro.api.session import RunResult, Session, StatSnapshot, run_scenario
from repro.metrics.histogram import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    HistogramSnapshot,
)
from repro.metrics.registry import MetricsRegistry, MetricsSnapshot
from repro.api.suite import (
    ExperimentSuite,
    MappingCell,
    combo_grid,
    execute_cell,
)

__all__ = [
    "Scenario",
    "ScenarioBuilder",
    "Session",
    "RunResult",
    "StatSnapshot",
    "run_scenario",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Histogram",
    "HistogramSnapshot",
    "DEFAULT_LATENCY_BUCKETS",
    "WorkloadSource",
    "Burst",
    "Slowdown",
    "NodeCrash",
    "Partition",
    "DelaySpike",
    "MessageLoss",
    "Disturbance",
    "disturbance_from_json",
    "ExperimentSuite",
    "MappingCell",
    "combo_grid",
    "execute_cell",
    "StrategyRegistry",
    "default_registry",
    "REGISTRY",
    "ENGINE_MIDDLEWARE",
    "ENGINE_DISTRIBUTED",
    "ENGINE_REPLAY",
    "workload_to_json",
    "workload_from_json",
    "cost_model_to_json",
    "cost_model_from_json",
    "delay_model_to_json",
    "delay_model_from_json",
]
