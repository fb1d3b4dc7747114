#!/usr/bin/env python3
"""Trace a run and render per-processor execution timelines.

Runs a small plant workload with tracing enabled (``trace=True`` on the
scenario), then prints the first events chronologically, the full
history of one hazard-alert job, and an ASCII lane chart of the first two
seconds — the kind of visibility the paper's authors got from KURT-Linux
timestamp instrumentation.  The live system (and its tracer) stays
reachable through ``Session.system``.
"""

import os

from repro import SubtaskSpec, TaskKind, TaskSpec, Workload
from repro.api import Scenario, Session, WorkloadSource
from repro.sim.timeline import build_timeline, format_lanes, format_timeline

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION", "10.0"))


def main() -> None:
    scan = TaskSpec(
        task_id="scan",
        kind=TaskKind.PERIODIC,
        deadline=0.5,
        period=0.5,
        subtasks=(
            SubtaskSpec(0, 0.05, "floor1", ("floor2",)),
            SubtaskSpec(1, 0.05, "floor2", ("floor1",)),
        ),
    )
    alert = TaskSpec(
        task_id="alert",
        kind=TaskKind.APERIODIC,
        deadline=0.3,
        subtasks=(
            SubtaskSpec(0, 0.02, "floor1", ("floor2",)),
            SubtaskSpec(1, 0.02, "floor2", ("floor1",)),
        ),
    )
    workload = Workload(tasks=(scan, alert), app_nodes=("floor1", "floor2"))

    scenario = Scenario(
        workload=WorkloadSource.explicit(workload),
        combo="J_J_T",
        duration=DURATION,
        seed=5,
        trace=True,
    )
    session = Session(scenario)
    result = session.run()
    timeline = build_timeline(session.system.tracer)

    print("=== first events of the run ===")
    print(format_timeline(timeline, limit=25))

    print("\n=== full history of alert job #0 ===")
    for event in timeline.job_history("alert", 0):
        print(f"  {event.time:10.6f}s  {event.node:12} {event.category}")

    print("\n=== processor lanes, first 2 seconds ===")
    print(
        format_lanes(
            timeline,
            nodes=["task_manager", "floor1", "floor2"],
            start=0.0,
            end=2.0,
        )
    )
    print(f"\ntotal trace events: {len(session.system.tracer)}; "
          f"accepted ratio {result.accepted_utilization_ratio:.3f}")


if __name__ == "__main__":
    main()
