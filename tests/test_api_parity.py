"""Parity tests: scenario-based experiments == pre-refactor serial paths.

Every experiment module now constructs its runs through ``repro.api``
scenarios executed by the shared parallel runner.  These tests pin the
refactor down: at fixed seeds the new path must produce **identical**
outputs (exact float equality, not approx) to the direct-construction
serial code it replaced — per figure, and for any worker count — and a
``Session`` run with a cost model, delay model, burst or slowdown equals
the direct build that sets the same thing by hand.

The reference implementations are the direct-construction cells in
``tests/parity_reference.py`` (``middleware_cell``, ``overhead_cell``,
``run_combo_grid``) plus inline serial loops that mirror the old module
bodies line for line.  The ablation, which runs its own replay cells, is
pinned to its exact ratios and to an inline serial replay of every set.
"""

import pytest

from repro.api import (
    Burst,
    ExperimentSuite,
    Scenario,
    Session,
    Slowdown,
    WorkloadSource,
)
from repro.core.cost_model import CostModel
from repro.core.middleware import MiddlewareSystem
from repro.core.strategies import StrategyCombo, valid_combinations
from repro.experiments.ablation import replay_cell, run_aub_vs_deferrable
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure8 import run_figure8
from repro.metrics.overhead import ALL_ROWS, OverheadAccounting
from repro.net.latency import ConstantDelay
from repro.sched.deferrable import DeferrableServerPolicy
from repro.sched.replay import AubReplayPolicy, jobs_from_plan, replay
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import build_arrival_plan
from repro.workloads.generator import RandomWorkloadParams, generate_random_workload
from repro.workloads.imbalanced import generate_imbalanced_workload

from tests.parity_reference import overhead_cell, run_combo_grid

SEED = 7
DURATION = 20.0


def _random_sets(seed, n, imbalanced=False):
    gen = RngRegistry(seed).stream("task_sets")
    generate = generate_imbalanced_workload if imbalanced else (
        generate_random_workload
    )
    return [generate(gen) for _ in range(n)]


class TestFigure5Parity:
    def test_identical_to_serial_reference(self):
        combos = [StrategyCombo.from_label(l) for l in ("T_N_N", "J_T_J", "J_J_J")]
        workloads = _random_sets(SEED, 2)
        ref_sets, ref_misses = run_combo_grid(
            workloads, combos, SEED, DURATION, None, 2.0, n_workers=1
        )
        result = run_figure5(
            duration=DURATION,
            seed=SEED,
            combos=combos,
            workloads=workloads,
            n_workers=2,
        )
        assert result.per_combo_sets == ref_sets
        assert result.deadline_misses == ref_misses


class TestFigure6Parity:
    def test_identical_to_serial_reference(self):
        combos = [StrategyCombo.from_label(l) for l in ("J_J_N", "J_J_T")]
        workloads = _random_sets(SEED, 2, imbalanced=True)
        ref_sets, ref_misses = run_combo_grid(
            workloads, combos, SEED, DURATION, None, 2.0, n_workers=1
        )
        result = run_figure6(
            duration=DURATION,
            seed=SEED,
            combos=combos,
            workloads=workloads,
            n_workers=2,
        )
        assert result.per_combo_sets == ref_sets
        assert result.deadline_misses == ref_misses


class TestFigure8Parity:
    def test_identical_to_serial_reference(self):
        # The old module body, line for line: two overhead cells merged
        # in fixed no-LB-then-LB order.
        params = RandomWorkloadParams(n_processors=3, min_subtasks=1, max_subtasks=3)
        gen = RngRegistry(SEED).stream("task_sets")
        workload = generate_random_workload(gen, params)
        merged = OverheadAccounting()
        outcomes = [
            overhead_cell(workload, label, SEED, DURATION, None, 2.0)
            for label in ("J_J_N", "J_J_J")
        ]
        for accounting, _stats in outcomes:
            for name in ALL_ROWS:
                merged.series(name).merge(accounting.series(name))
        for _accounting, stats in outcomes:
            merged.series("communication_delay").merge(stats)

        result = run_figure8(duration=DURATION, seed=SEED, n_workers=2)
        assert [r.as_tuple() for r in result.rows] == [
            r.as_tuple() for r in merged.rows()
        ]


#: What ``run_aub_vs_deferrable(n_sets=3, duration=40.0, seed=11)`` read
#: when the ablation ran as replay scenarios.
PINNED_AUB = [0.6455917292849239, 0.5363595773692236, 0.20902129872855746]
PINNED_DS = [0.8210901362956371, 0.7876801717294304, 0.9131067466940365]


class TestAblationParity:
    """The ratios the ablation read when it ran as replay scenarios, for
    any worker count; a serial inline replay of every set; and a set
    replayed on its own."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_identical_to_pinned_ratios(self, workers):
        result = run_aub_vs_deferrable(
            n_sets=3, duration=40.0, seed=11, n_workers=workers
        )
        assert result.aub_ratios == PINNED_AUB
        assert result.ds_ratios == PINNED_DS

    def test_identical_to_serial_reference(self):
        # Every parameter off its default, so one a cell drops shows.
        seed, duration, factor, server_u, server_t = 5, 30.0, 1.5, 0.2, 1.0
        params = RandomWorkloadParams(n_periodic=3, n_aperiodic=4)
        sets = RngRegistry(seed).stream("task_sets")
        workloads = [generate_random_workload(sets, params) for _ in range(4)]
        aub_ratios, ds_ratios = [], []
        for set_index, workload in enumerate(workloads):
            plan = build_arrival_plan(
                workload,
                duration,
                RngRegistry(seed).stream(f"arrivals:{set_index}"),
                factor,
            )
            nodes = list(workload.app_nodes)
            aub_ratios.append(
                replay(
                    jobs_from_plan(workload, plan), AubReplayPolicy(nodes)
                ).accepted_utilization_ratio
            )
            ds_ratios.append(
                replay(
                    jobs_from_plan(workload, plan),
                    DeferrableServerPolicy(
                        nodes, server_utilization=server_u, server_period=server_t
                    ),
                ).accepted_utilization_ratio
            )
        result = run_aub_vs_deferrable(
            n_sets=4,
            duration=duration,
            seed=seed,
            params=params,
            aperiodic_interarrival_factor=factor,
            server_utilization=server_u,
            server_period=server_t,
            n_workers=2,
        )
        assert result.aub_ratios == aub_ratios
        assert result.ds_ratios == ds_ratios

    def test_one_set_alone_matches_the_full_run(self):
        # A set's trace is keyed by its index, not drawn after the others'.
        workload = _random_sets(11, 3)[2]
        assert replay_cell(workload, 2, 11, 40.0, 2.0, 0.3, 0.1) == (
            PINNED_AUB[2],
            PINNED_DS[2],
        )


def _scenario(combo, duration=DURATION, **fields):
    """A scenario of the workload the direct loops below build."""
    return Scenario(
        workload=WorkloadSource.random(seed=3, stream="wl"),
        combo=combo,
        duration=duration,
        seed=3,
        **fields,
    )


def _session_run(combo, duration=DURATION, **fields):
    """One ``Session`` run of the workload the direct loops below build."""
    return Session(_scenario(combo, duration, **fields)).run()


class TestSensitivityParity:
    """A load, cost or delay sweep is a loop over scenarios: each
    ``Session`` run equals the direct ``MiddlewareSystem`` build."""

    def test_load_sweep_identical_to_direct_loop(self):
        workload = generate_random_workload(RngRegistry(3).stream("wl"))
        combo = StrategyCombo.from_label("J_J_J")
        for factor in (4.0, 1.0):
            system = MiddlewareSystem(
                workload, combo, seed=3, aperiodic_interarrival_factor=factor
            )
            run = _session_run("J_J_J", aperiodic_interarrival_factor=factor)
            assert run.accepted_utilization_ratio == (
                system.run(DURATION).accepted_utilization_ratio
            )

    def test_overhead_sweep_identical_to_direct_loop(self):
        workload = generate_random_workload(RngRegistry(3).stream("wl"))
        combo = StrategyCombo.from_label("J_J_J")
        for cost in (CostModel.zero(), CostModel().scaled(10.0)):
            system = MiddlewareSystem(workload, combo, cost_model=cost, seed=3)
            run = _session_run("J_J_J", cost_model=cost)
            assert run.accepted_utilization_ratio == (
                system.run(DURATION).accepted_utilization_ratio
            )

    def test_delay_sweep_identical_to_direct_loop(self):
        workload = generate_random_workload(RngRegistry(3).stream("wl"))
        combo = StrategyCombo.from_label("J_J_J")
        for delay in (0.001, 0.05):
            system = MiddlewareSystem(
                workload, combo, seed=3, delay_model=ConstantDelay(delay)
            )
            reference = system.run(DURATION)
            run = _session_run("J_J_J", delay_model=ConstantDelay(delay))
            assert (
                run.accepted_utilization_ratio,
                run.mean_response_time,
                run.deadline_misses,
            ) == (
                reference.accepted_utilization_ratio,
                reference.metrics.response_times.mean,
                reference.metrics.deadline_misses,
            )


class TestDisturbanceParity:
    """``Session``'s burst and slowdown paths equal the hand-scheduled
    disturbances of a direct ``MiddlewareSystem`` build, and a suite of
    those scenarios equals their single runs for any worker count."""

    def test_suite_matches_single_runs(self):
        cells = tuple(
            _scenario(combo, duration=30.0, disturbances=(disturbance,))
            for combo, disturbance in (
                ("J_J_N", Burst(time=10.0, jobs=25)),
                ("J_N_N", Slowdown(time=10.0, factor=0.2)),
            )
        )
        singles = [Session(cell).run().to_json() for cell in cells]
        suite = ExperimentSuite(name="disturbance", cells=cells)
        for workers in (1, 2):
            results = suite.run_results(n_workers=workers)
            assert [r.to_json() for r in results] == singles

    def test_burst_matches_direct_construction(self):
        workload = generate_random_workload(RngRegistry(3).stream("wl"))
        system = MiddlewareSystem(
            workload, StrategyCombo.from_label("J_J_N"), seed=3
        )
        alert = workload.aperiodic_tasks[0]
        for i in range(25):
            arrival = 10.0 + i * 1e-3
            system.sim.schedule_at(
                arrival, system._arrive, alert, 100_000 + i, arrival
            )
        reference = system.run(30.0)

        result = _session_run(
            "J_J_N", duration=30.0, disturbances=(Burst(time=10.0, jobs=25),)
        )
        assert result.accepted_utilization_ratio == (
            reference.metrics.accepted_utilization_ratio
        )
        assert result.deadline_misses == reference.metrics.deadline_misses
        assert result.released_jobs == reference.metrics.released_jobs
        assert result.rejected_jobs == reference.metrics.rejected_jobs

    def test_slowdown_matches_direct_construction(self):
        workload = generate_random_workload(RngRegistry(3).stream("wl"))
        system = MiddlewareSystem(
            workload, StrategyCombo.from_label("J_N_N"), seed=3
        )

        def throttle():
            for node in workload.app_nodes:
                system.processors[node].set_speed(0.2)

        system.sim.schedule_at(10.0, throttle)
        reference = system.run(30.0)

        result = _session_run(
            "J_N_N", duration=30.0, disturbances=(Slowdown(time=10.0, factor=0.2),)
        )
        assert result.accepted_utilization_ratio == (
            reference.metrics.accepted_utilization_ratio
        )
        assert result.deadline_misses == reference.metrics.deadline_misses


class TestFullGridWorkerInvariance:
    def test_figure5_all_combos_worker_invariant(self):
        a = run_figure5(n_sets=1, duration=10.0, seed=5, n_workers=1)
        b = run_figure5(n_sets=1, duration=10.0, seed=5, n_workers=4)
        assert a.per_combo_sets == b.per_combo_sets
        assert len(a.per_combo) == len(valid_combinations())
