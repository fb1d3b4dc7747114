"""Benchmark: centralized vs decentralized admission control.

Measures the trade-off the paper's section 3 discusses when justifying
the centralized AC/LB architecture: the decentralized two-phase variant
needs more coordination messages per admission and is more conservative
(slack partitioning), while the centralized design risks a bottleneck
only when admission tests approach task execution times (they do not —
see the AUB micro-benchmark).

Also records the ``distributed_round`` section of the hot-path record
(written only where ``REPRO_BENCH_HOTPATH_OUT`` points, see conftest.py):
coordination rounds and reserve messages for a simultaneous burst, with
and without piggybacking (arrival batching) — the O(burst) -> O(1)
claim, in counters.
"""

import random

import pytest

from repro.core.cost_model import CostModel
from repro.core.distributed_ac import DistributedMiddlewareSystem
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo
from repro.experiments.report import format_table
from repro.net.latency import ConstantDelay
from repro.sched.task import SubtaskSpec, TaskKind, TaskSpec
from repro.workloads.generator import generate_random_workload
from repro.workloads.model import Workload

from conftest import bench_duration, merge_hotpath_record


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


def test_bench_piggybacked_rounds():
    """Coordination cost of a simultaneous burst, sequential two-phase
    rounds vs one piggybacked multi-reservation round.

    The counters are deterministic (fixed seed, jitter-free cost model),
    so the section gates exact protocol cost rather than wall-clock."""
    burst = 32
    task = TaskSpec(
        task_id="S",
        kind=TaskKind.APERIODIC,
        deadline=5.0,
        subtasks=(
            SubtaskSpec(index=0, execution_time=0.005, home="app1"),
            SubtaskSpec(index=1, execution_time=0.005, home="app2"),
        ),
    )
    workload = Workload(tasks=(task,), app_nodes=("app1", "app2"))
    counters = {}
    for batching in (False, True):
        system = DistributedMiddlewareSystem(
            workload,
            seed=1,
            cost_model=CostModel(jitter=0.0),
            delay_model=ConstantDelay(0.001),
            arrival_batching=batching,
        )
        for i in range(burst):
            system.sim.schedule_at(0.0, system._arrive, task, i, 0.0)
        system.sim.run(until=1.0)
        counters[batching] = {
            "rounds": sum(
                ac.coordination_rounds for ac in system.acs.values()
            ),
            "reserve_messages": sum(
                ac.reserve_messages for ac in system.acs.values()
            ),
            "admitted": sum(ac.admitted_jobs for ac in system.acs.values()),
        }
    sequential, piggybacked = counters[False], counters[True]
    section = {
        "burst": burst,
        "rounds_sequential": sequential["rounds"],
        "rounds_piggybacked": piggybacked["rounds"],
        "reserve_messages_sequential": sequential["reserve_messages"],
        "reserve_messages_piggybacked": piggybacked["reserve_messages"],
        "round_reduction": sequential["rounds"] / piggybacked["rounds"],
    }
    print()
    print(
        f"distributed coordination, burst of {burst}: "
        f"{sequential['rounds']} rounds / "
        f"{sequential['reserve_messages']} reserve msgs sequential -> "
        f"{piggybacked['rounds']} / "
        f"{piggybacked['reserve_messages']} piggybacked "
        f"({section['round_reduction']:.0f}x fewer rounds)"
    )
    merge_hotpath_record({"distributed_round": section})

    # O(burst) -> O(1): the whole burst coordinates in one round.
    assert piggybacked["rounds"] == 1
    assert sequential["rounds"] == burst
    assert piggybacked["reserve_messages"] == len(workload.app_nodes)
    # Piggybacking must not change a single decision.
    assert piggybacked["admitted"] == sequential["admitted"] > 0
