#!/usr/bin/env python3
"""Centralized vs decentralized admission control (paper section 3).

The paper chose one central AC/LB pair on a task-manager processor and
argued a distributed alternative would need synchronization among
admission controllers.  This example expresses both architectures as
scenarios — same workload source, different ``engine`` — runs the whole
grid through one parallel suite, and prints the measured trade-off:
coordination traffic and conservatism versus the (theoretical) central
bottleneck.
"""

import os

from repro.api import ExperimentSuite, Scenario, WorkloadSource
from repro.experiments.report import format_table

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION", "90.0"))
SEEDS = range(4)


def main() -> None:
    cells = []
    for seed in SEEDS:
        central = Scenario(
            workload=WorkloadSource.random(seed=300 + seed, stream="wl"),
            combo="J_N_N",
            duration=DURATION,
            seed=seed,
        )
        cells.append(central)
        cells.append(central.with_changes(engine="distributed"))
    suite = ExperimentSuite(name="central-vs-distributed", cells=tuple(cells))
    outcomes = iter(suite.run_results())

    rows = []
    for seed, (r_cent, r_dist) in zip(SEEDS, zip(outcomes, outcomes)):
        rows.append(
            [
                seed,
                r_cent.accepted_utilization_ratio,
                r_dist.accepted_utilization_ratio,
                r_cent.messages_sent,
                r_dist.messages_sent,
                r_dist.reserve_messages,
                r_cent.deadline_misses + r_dist.deadline_misses,
            ]
        )

    print(
        format_table(
            ["set", "central ratio", "distrib ratio", "central msgs",
             "distrib msgs", "reserve msgs", "misses"],
            rows,
            title=f"Centralized vs decentralized admission control "
                  f"({DURATION:.0f} s)",
        )
    )
    print(
        "\nThe decentralized two-phase protocol preserves the deadline "
        "guarantee\nbut partitions AUB slack into per-processor caps "
        "(conservative) and pays\nextra coordination messages — the "
        "trade-off behind the paper's centralized choice."
    )


if __name__ == "__main__":
    main()
