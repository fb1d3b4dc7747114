"""repro.api — the single public surface for building and running deployments.

Build a :class:`Scenario`, hand it to a :class:`Session`, get a typed
:class:`RunResult` back::

    from repro.api import Scenario, Session, WorkloadSource

    scenario = Scenario(
        workload=WorkloadSource.random(seed=2008),
        combo="J_J_J",
        duration=60.0,
        seed=7,
    )
    result = Session(scenario).run()
    print(result.accepted_utilization_ratio)

Scenarios are frozen, validated and JSON-round-trip serializable
(``scenario.to_json_str()`` / ``Scenario.from_json_str``), strategy
combos are resolved by name through :func:`resolve_combo`, and grids of
scenarios fan out over all cores through :class:`ExperimentSuite` with
results bit-identical to a serial run.

``MiddlewareSystem(...)``, the assembler a Session deploys through,
returns loosely-shaped results — see ``docs/API.md`` for how they map
onto :class:`RunResult`.
"""

from repro.api.registry import resolve_combo
from repro.api.scenario import (
    ENGINE_DISTRIBUTED,
    ENGINE_MIDDLEWARE,
    Burst,
    DelaySpike,
    Disturbance,
    MessageLoss,
    NodeCrash,
    Partition,
    Scenario,
    Slowdown,
    WorkloadSource,
)
from repro.api.session import RunResult, Session, StatSnapshot, run_scenario
from repro.metrics.histogram import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    HistogramSnapshot,
)
from repro.metrics.registry import MetricsRegistry, MetricsSnapshot
from repro.api.suite import ExperimentSuite, combo_grid

__all__ = [
    "Scenario",
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
    "ExperimentSuite",
    "combo_grid",
    "resolve_combo",
    "ENGINE_MIDDLEWARE",
    "ENGINE_DISTRIBUTED",
]
