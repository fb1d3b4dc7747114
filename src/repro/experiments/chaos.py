"""Availability under failure: the chaos-engineering experiment grid.

The fault-tolerant distributed admission protocol trades availability
for safety: under crashes, partitions, and message loss it may reject
(or abort) more work, but it never strands a job mid-coordination and
never leaks a reservation (see ``tests/chaos`` and ``docs/CHAOS.md``).
This grid quantifies the availability side of that trade — the fraction
of arrived jobs the system still releases under each fault class,
against a fault-free baseline on the identical workload and seed.

Cells are ordinary :class:`~repro.api.scenario.Scenario` values, so the
grid fans out through the shared multiprocessing runner and is
bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.api.scenario import (
    DelaySpike,
    Disturbance,
    MessageLoss,
    NodeCrash,
    Partition,
    Scenario,
    WorkloadSource,
)
from repro.api.session import RunResult
from repro.api.suite import ExperimentSuite


@dataclass
class ChaosResult:
    """Availability outcome of one fault scenario."""

    scenario: str
    availability: float  #: released / arrived (1.0 when nothing arrived)
    arrived_jobs: int
    released_jobs: int
    rejected_jobs: int
    deadline_misses: int
    messages_dropped: int
    vote_timeouts: int
    retries_sent: int
    transactions_aborted: int


def _cell(
    label: str,
    disturbances: Tuple[Disturbance, ...],
    duration: float,
    seed: int,
    workload_seed: int,
) -> Scenario:
    return Scenario(
        workload=WorkloadSource.random(seed=workload_seed),
        engine="distributed",
        combo="J_N_N",
        duration=duration,
        seed=seed,
        disturbances=disturbances,
        label=label,
    )


def build_chaos_suite(
    duration: float = 30.0,
    seed: int = 2008,
    workload_seed: int = 3,
    crash_node: str = "app1",
    partition_peer: str = "app2",
    loss_probability: float = 0.2,
) -> ExperimentSuite:
    """The availability-under-failure grid as a declarative suite.

    One fault-free baseline plus one cell per fault class, all on the
    same workload and arrival seed so the availability deltas isolate
    the injected fault.  The default ``crash_node`` matches the node
    names ``WorkloadSource.random`` materializes (``app1`` ... ``appN``).
    """
    third = duration / 3.0
    cells = (
        _cell("baseline", (), duration, seed, workload_seed),
        _cell(
            "crash_recover",
            (NodeCrash(node=crash_node, time=third, recovery=2.0 * third),),
            duration,
            seed,
            workload_seed,
        ),
        _cell(
            "crash_forever",
            (NodeCrash(node=crash_node, time=third, recovery=None),),
            duration,
            seed,
            workload_seed,
        ),
        _cell(
            "partition",
            (
                Partition(
                    time=third,
                    heal=2.0 * third,
                    group_a=(crash_node,),
                    group_b=(partition_peer,),
                ),
            ),
            duration,
            seed,
            workload_seed,
        ),
        _cell(
            "message_loss",
            (MessageLoss(probability=loss_probability, until=duration),),
            duration,
            seed,
            workload_seed,
        ),
        _cell(
            "delay_spike",
            (DelaySpike(time=third, until=2.0 * third, factor=10.0),),
            duration,
            seed,
            workload_seed,
        ),
    )
    return ExperimentSuite(name="chaos", cells=cells)


def _to_chaos_result(run: RunResult) -> ChaosResult:
    availability = (
        run.released_jobs / run.arrived_jobs if run.arrived_jobs else 1.0
    )
    return ChaosResult(
        scenario=run.scenario_label,
        availability=availability,
        arrived_jobs=run.arrived_jobs,
        released_jobs=run.released_jobs,
        rejected_jobs=run.rejected_jobs,
        deadline_misses=run.deadline_misses,
        messages_dropped=run.messages_dropped,
        vote_timeouts=run.vote_timeouts,
        retries_sent=run.retries_sent,
        transactions_aborted=run.transactions_aborted,
    )


def run_chaos_suite(
    duration: float = 30.0,
    seed: int = 2008,
    workload_seed: int = 3,
    crash_node: str = "app1",
    partition_peer: str = "app2",
    loss_probability: float = 0.2,
    n_workers: Optional[int] = None,
) -> List[ChaosResult]:
    """Run the availability-under-failure grid through the runner."""
    suite = build_chaos_suite(
        duration=duration,
        seed=seed,
        workload_seed=workload_seed,
        crash_node=crash_node,
        partition_peer=partition_peer,
        loss_probability=loss_probability,
    )
    return [_to_chaos_result(run) for run in suite.run_results(n_workers)]
