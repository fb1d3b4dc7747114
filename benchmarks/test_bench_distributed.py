"""Benchmark: centralized vs decentralized admission control.

Measures the trade-off the paper's section 3 discusses when justifying
the centralized AC/LB architecture: the decentralized two-phase variant
needs more coordination messages per admission and is more conservative
(slack partitioning), while the centralized design risks a bottleneck
only when admission tests approach task execution times (they do not —
see the AUB micro-benchmark).
"""

import random

from repro.core.distributed_ac import DistributedMiddlewareSystem
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo
from repro.experiments.report import format_table
from repro.workloads.generator import generate_random_workload

from conftest import bench_duration


def test_bench_centralized_vs_distributed(benchmark):
    duration = min(60.0, bench_duration())
    rows = []
    cent_ratios, dist_ratios = [], []
    for seed in range(3):
        workload = generate_random_workload(random.Random(100 + seed))
        centralized = MiddlewareSystem(
            workload, StrategyCombo.from_label("J_N_N"), seed=seed
        )
        r_cent = centralized.run(duration)
        distributed = DistributedMiddlewareSystem(workload, seed=seed)
        r_dist = distributed.run(duration)
        cent_ratios.append(r_cent.accepted_utilization_ratio)
        dist_ratios.append(r_dist.accepted_utilization_ratio)
        rows.append(
            [
                seed,
                r_cent.accepted_utilization_ratio,
                r_dist.accepted_utilization_ratio,
                r_cent.messages_sent,
                r_dist.messages_sent,
                r_dist.deadline_misses,
            ]
        )

    def one_distributed_run():
        workload = generate_random_workload(random.Random(100))
        return DistributedMiddlewareSystem(workload, seed=0).run(20.0)

    benchmark(one_distributed_run)
    print()
    print(
        format_table(
            ["set", "centralized ratio", "distributed ratio",
             "centralized msgs", "distributed msgs", "dist misses"],
            rows,
            title="Centralized vs decentralized admission control",
        )
    )
    # Decentralized is (up to admission-timing noise) more conservative,
    # and always safe.
    for cent, dist in zip(cent_ratios, dist_ratios):
        assert dist <= cent + 0.05
    assert all(row[5] == 0 for row in rows)
