"""repro — Reconfigurable real-time middleware for distributed CPS.

A production-quality Python reproduction of Zhang, Gill & Lu,
"Reconfigurable Real-Time Middleware for Distributed Cyber-Physical
Systems with Aperiodic Events" (WUCSE-2008-5 / ICDCS 2008).

Quickstart — the ``repro.api`` declarative surface
--------------------------------------------------
>>> from repro.api import Scenario, Session
>>> scenario = (
...     Scenario.builder()
...     .random_workload(seed=1)
...     .combo("J_J_J")
...     .duration(20.0)
...     .build()
... )
>>> result = Session(scenario).run()
>>> 0.0 <= result.accepted_utilization_ratio <= 1.0
True

Scenarios are frozen, validated, and JSON-round-trip serializable
(``scenario.to_json_str()``), strategies resolve by name through
``repro.api.default_registry()``, and grids of scenarios fan out over
all cores via ``repro.api.ExperimentSuite`` with bit-identical results
for any worker count.

``MiddlewareSystem(workload, combo)`` is the one assembler behind a
Session, and a checked deployment plan is built by it too
(``repro.config.deploy_plan``); ``docs/API.md`` maps its loosely-shaped
results onto ``RunResult``.  See ``examples/`` for full scenarios and
``benchmarks/`` for the reproductions of the paper's figures and
tables.
"""

from repro.api import (
    ExperimentSuite,
    RunResult,
    Scenario,
    Session,
    WorkloadSource,
    default_registry,
    run_scenario,
)
from repro.core.cost_model import CostModel
from repro.core.middleware import MiddlewareSystem, SystemResults
from repro.core.strategies import (
    ACStrategy,
    IRStrategy,
    LBStrategy,
    StrategyCombo,
    valid_combinations,
)
from repro.errors import ReproError
from repro.sched.task import Job, SubtaskSpec, TaskKind, TaskSpec
from repro.workloads.model import Workload

__version__ = "2.0.0"

__all__ = [
    # Declarative public surface
    "Scenario",
    "Session",
    "RunResult",
    "ExperimentSuite",
    "WorkloadSource",
    "default_registry",
    "run_scenario",
    # Building blocks
    "CostModel",
    "MiddlewareSystem",
    "SystemResults",
    "ACStrategy",
    "IRStrategy",
    "LBStrategy",
    "StrategyCombo",
    "valid_combinations",
    "ReproError",
    "Job",
    "SubtaskSpec",
    "TaskKind",
    "TaskSpec",
    "Workload",
]
