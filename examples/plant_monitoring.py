#!/usr/bin/env python3
"""Industrial plant monitoring — the paper's motivating scenario.

    "In an industrial plant monitoring system, an aperiodic alert may be
    generated when a series of periodic sensor readings meets certain
    hazard detection criteria.  This alert must be processed on multiple
    processors within an end-to-end deadline, e.g., to put an industrial
    process into a fail-safe mode."

Five periodic sensor-scan tasks run across three plant-floor processors.
A hazard-alert task (aperiodic, 3-stage: detect -> diagnose -> actuate)
must finish within 300 ms end to end.  Because the alert chain drives a
fail-safe actuator, the application cannot skip jobs (criterion C1 = no)
and its diagnosis stage keeps state (C2 = yes) — the configuration engine
therefore selects per-task strategies, exactly the paper's Figure 4
example.  The engine *emits* the configured run as a declarative
:class:`repro.api.Scenario`, which a Session deploys and runs.
"""

import os

from repro.api import Session
from repro.config import ApplicationCharacteristics, ConfigurationEngine
from repro.config.characteristics import OverheadTolerance
from repro.sched.task import SubtaskSpec, TaskKind, TaskSpec
from repro.workloads.model import Workload

PLANT_FLOOR = ("floor1", "floor2", "floor3")
DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION", "120.0"))


def build_workload() -> Workload:
    tasks = []
    # Periodic sensor scans: one per floor pair, staggered phases.
    scan_configs = [
        ("scan_temperature", "floor1", "floor2", 1.0, 0.04),
        ("scan_pressure", "floor2", "floor3", 0.8, 0.03),
        ("scan_flow", "floor3", "floor1", 1.2, 0.05),
        ("scan_vibration", "floor1", "floor3", 2.0, 0.06),
        ("scan_level", "floor2", "floor1", 1.5, 0.04),
    ]
    for i, (name, first, second, period, execution) in enumerate(scan_configs):
        tasks.append(
            TaskSpec(
                task_id=name,
                kind=TaskKind.PERIODIC,
                deadline=period,
                period=period,
                phase=0.1 * i,
                subtasks=(
                    SubtaskSpec(0, execution, first, _others(first)),
                    SubtaskSpec(1, execution / 2, second, _others(second)),
                ),
            )
        )
    # The hazard alert: detect on the floor, diagnose centrally, actuate.
    tasks.append(
        TaskSpec(
            task_id="hazard_alert",
            kind=TaskKind.APERIODIC,
            deadline=0.3,
            subtasks=(
                SubtaskSpec(0, 0.01, "floor1", _others("floor1")),
                SubtaskSpec(1, 0.03, "floor2", _others("floor2")),
                SubtaskSpec(2, 0.01, "floor3", _others("floor3")),
            ),
        )
    )
    return Workload(tasks=tuple(tasks), app_nodes=PLANT_FLOOR)


def _others(node: str) -> tuple:
    return tuple(n for n in PLANT_FLOOR if n != node)


def main() -> None:
    workload = build_workload()
    engine = ConfigurationEngine()

    # The four questionnaire answers for a fail-safe control application.
    characteristics = ApplicationCharacteristics(
        job_skipping=False,          # C1: every admitted alert must run
        replicated_components=True,  # C3: floors can host duplicates
        state_persistence=True,      # C2: diagnosis is stateful
        overhead_tolerance=OverheadTolerance.PER_TASK,
    )
    result = engine.configure(workload, characteristics)
    print("application characteristics:", characteristics.describe())
    print("selected strategies        :", result.combo.label,
          "(AC per task, IR per task, LB per task)")
    for note in result.notes:
        print("note:", note)

    # The engine's decision, as a serializable scenario data object.
    scenario = engine.scenario(result, duration=DURATION, seed=7)
    session = Session(scenario)
    run = session.run()

    print(f"\n=== plant monitoring, {DURATION:.0f} simulated seconds ===")
    print(f"jobs arrived / released / rejected : "
          f"{run.arrived_jobs} / {run.released_jobs} / {run.rejected_jobs}")
    print(f"accepted utilization ratio          : "
          f"{run.accepted_utilization_ratio:.3f}")
    alert_stats = (
        session.system.metrics.latency.task_response_times("hazard_alert")
    )
    if alert_stats.count:
        print(f"hazard alerts completed             : {alert_stats.count}")
        print(f"alert response time mean / max      : "
              f"{alert_stats.mean * 1000:.2f} ms / "
              f"{alert_stats.maximum * 1000:.2f} ms  (deadline 300 ms)")
    print(f"deadline misses                     : {run.deadline_misses}")


if __name__ == "__main__":
    main()
