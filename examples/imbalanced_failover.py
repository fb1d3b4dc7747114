#!/usr/bin/env python3
"""Valve-blockage overload — the paper's section 7.2 scenario.

    "In an industrial control system, a blockage in a fluid flow valve may
    cause a sharp increase in the load on the processors immediately
    connected to it, as aperiodic alert and diagnostic tasks are
    launched."

Three processors near the valve host all tasks (synthetic utilization
0.7); two stand-by processors host only replicas.  The example runs the
same arrival trace through three scenarios differing only in load
balancing (J_J_N, J_J_T, J_J_J) — one declarative suite, executed in
parallel — and shows how spilling load onto the replica processors
raises the accepted utilization ratio.
"""

import os
import random

from repro.api import ExperimentSuite, Scenario, WorkloadSource
from repro.experiments.report import bar_chart, format_table
from repro.workloads.imbalanced import generate_imbalanced_workload

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION", "120.0"))


def main() -> None:
    workload = generate_imbalanced_workload(random.Random(2008))
    print("processor static utilization (all tasks current):")
    for node, util in sorted(workload.static_utilization().items()):
        role = "loaded" if util > 0 else "replica-only"
        print(f"  {node}: {util:.2f}  ({role})")

    suite = ExperimentSuite(
        name="valve-blockage",
        cells=tuple(
            Scenario(
                workload=WorkloadSource.explicit(workload),
                combo=label,
                duration=DURATION,
                seed=7,
                aperiodic_interarrival_factor=1.5,
            )
            for label in ("J_J_N", "J_J_T", "J_J_J")
        ),
    )

    ratios = {}
    rows = []
    for run in suite.run_results():
        ratios[run.combo_label] = run.accepted_utilization_ratio
        spill = sum(
            util
            for node, util in run.cpu_utilization.items()
            if node in ("app4", "app5")
        )
        rows.append(
            [
                run.combo_label,
                run.accepted_utilization_ratio,
                run.rejected_jobs,
                f"{spill:.4f}",
                run.deadline_misses,
            ]
        )

    print()
    print(
        format_table(
            ["combo", "accepted ratio", "rejected jobs",
             "replica-cpu busy", "misses"],
            rows,
            title=f"Valve blockage: LB strategy comparison ({DURATION:.0f} s)",
        )
    )
    print()
    print(bar_chart(ratios, title="Accepted utilization ratio"))
    gain = ratios["J_J_T"] - ratios["J_J_N"]
    print(f"\nload balancing per task recovers {gain:+.3f} accepted "
          "utilization ratio over no load balancing")


if __name__ == "__main__":
    main()
