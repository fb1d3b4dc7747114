#!/usr/bin/env python3
"""Sweep all 15 valid strategy combinations over one random workload.

Reproduces a single-task-set slice of the paper's Figure 5 and prints the
bar chart plus the trade-off summary (acceptance vs middleware events —
the overhead proxy the paper asks developers to weigh).

The sweep is one declarative :class:`repro.api.ExperimentSuite` — 15
scenarios differing only in their combo name — fanned out over all cores
by the shared parallel runner.
"""

import os

from repro import valid_combinations
from repro.api import ExperimentSuite, Scenario, WorkloadSource
from repro.experiments.report import bar_chart, format_table

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION", "90.0"))


def main() -> None:
    suite = ExperimentSuite(
        name="strategy-explorer",
        cells=tuple(
            Scenario(
                workload=WorkloadSource.random(seed=11, stream="wl"),
                combo=combo.label,
                duration=DURATION,
                seed=3,
            )
            for combo in valid_combinations()
        ),
    )
    results = suite.run_results()
    workload = suite.cells[0].workload.materialize()
    print(f"workload: {len(workload.tasks)} tasks over "
          f"{len(workload.app_nodes)} processors, "
          f"static utilization "
          f"{list(workload.static_utilization().values())[0]:.2f}")

    ratios = {}
    rows = []
    for run in results:
        ratios[run.combo_label] = run.accepted_utilization_ratio
        rows.append(
            [
                run.combo_label,
                run.accepted_utilization_ratio,
                run.rejected_jobs,
                run.messages_sent,
                run.deadline_misses,
            ]
        )

    print()
    print(bar_chart(ratios, title="Accepted utilization ratio by combination"))
    print()
    print(
        format_table(
            ["combo", "ratio", "rejected", "messages", "misses"],
            rows,
            title=f"Acceptance vs middleware traffic "
                  f"({DURATION:.0f} s, one task set)",
        )
    )
    best = max(ratios, key=ratios.get)
    cheapest = min(rows, key=lambda r: r[3])
    print(f"\nbest acceptance: {best} ({ratios[best]:.3f}); "
          f"fewest middleware messages: {cheapest[0]} ({cheapest[3]})")


if __name__ == "__main__":
    main()
