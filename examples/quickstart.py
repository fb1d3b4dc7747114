#!/usr/bin/env python3
"""Quickstart: build a tiny distributed CPS and run it for one minute.

Two application processors host a periodic sensor-processing chain and an
aperiodic operator-command task.  The run is described declaratively: a
frozen, JSON-serializable :class:`repro.api.Scenario`, deployed and
executed by a :class:`repro.api.Session`, returning a typed
:class:`RunResult`.  The middleware is configured
J_J_T: per-job admission control, per-job idle resetting, per-task load
balancing.
"""

import os

from repro import SubtaskSpec, TaskKind, TaskSpec, Workload
from repro.api import Scenario, Session, WorkloadSource

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION", "60.0"))


def main() -> None:
    # An end-to-end periodic task: sample on app1, then filter on app2.
    sensor_chain = TaskSpec(
        task_id="sensor_chain",
        kind=TaskKind.PERIODIC,
        deadline=0.5,
        period=0.5,
        subtasks=(
            SubtaskSpec(index=0, execution_time=0.02, home="app1", replicas=("app2",)),
            SubtaskSpec(index=1, execution_time=0.03, home="app2", replicas=("app1",)),
        ),
    )
    # Aperiodic operator commands with a 200 ms end-to-end deadline.
    operator_cmd = TaskSpec(
        task_id="operator_cmd",
        kind=TaskKind.APERIODIC,
        deadline=0.2,
        subtasks=(
            SubtaskSpec(index=0, execution_time=0.01, home="app1", replicas=("app2",)),
        ),
    )
    workload = Workload(
        tasks=(sensor_chain, operator_cmd), app_nodes=("app1", "app2")
    )

    scenario = Scenario(
        workload=WorkloadSource.explicit(workload),
        combo="J_J_T",
        duration=DURATION,
        seed=42,
        label="quickstart",
    )
    # Scenarios round-trip through JSON — export one, run it anywhere:
    #   python -m repro scenario run quickstart.json
    print("scenario JSON preview:",
          scenario.to_json_str(indent=None)[:76] + "...")

    result = Session(scenario).run()

    print(f"=== quickstart results ({DURATION:.0f} simulated seconds) ===")
    for key, value in result.summary().items():
        print(f"  {key:28s} {value:.4f}" if isinstance(value, float)
              else f"  {key:28s} {value}")
    print(f"  accepted utilization ratio   "
          f"{result.accepted_utilization_ratio:.3f}")
    print(f"  deadline misses              {result.deadline_misses}")
    for node, util in sorted(result.cpu_utilization.items()):
        print(f"  cpu utilization {node:12s} {util:.4f}")


if __name__ == "__main__":
    main()
