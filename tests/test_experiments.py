"""Integration tests for the experiment runners (scaled-down versions).

Each test asserts the *shape* of the paper's findings, not absolute
numbers: those depend on the authors' testbed and undisclosed load rates.
"""

import pytest

from repro.core.cost_model import CostModel
from repro.core.strategies import StrategyCombo
from repro.experiments import (
    run_aub_vs_deferrable,
    run_figure5,
    run_figure6,
    run_figure8,
    run_table1,
)
from repro.experiments.report import bar_chart, format_table
from repro.experiments.table1 import format_rows
from repro.metrics.overhead import PAPER_FIGURE8_USEC


#: Figures 5 and 6 at two scales: a quick one, and ten task sets of 60 s,
#: the paper's set count at a fifth of its run length.
SCALES = [
    pytest.param(dict(n_sets=3, duration=40.0, seed=7), id="3x40s"),
    pytest.param(dict(n_sets=10, duration=60.0, seed=2008), id="10x60s"),
]


@pytest.fixture(scope="module", params=SCALES)
def fig5(request):
    return run_figure5(**request.param)


@pytest.fixture(scope="module", params=SCALES)
def fig6(request):
    return run_figure6(**request.param)


class TestFigure5:
    def test_covers_all_15_combos(self, fig5):
        assert len(fig5.per_combo) == 15

    def test_ratios_are_probabilities(self, fig5):
        assert all(0.0 <= v <= 1.0 for v in fig5.per_combo.values())

    def test_ir_per_job_significantly_outperforms(self, fig5):
        """Paper: enabling IR per job (*_J_*) significantly outperforms
        IR per task (*_T_*) and no IR (*_N_*)."""
        groups = fig5.by_ir_strategy()
        assert groups["J"] > groups["T"] + 0.05
        assert groups["J"] > groups["N"] + 0.05

    def test_j_j_combos_are_top_tier(self, fig5):
        """Paper: J_J_* outperforms all other configurations."""
        jj = [fig5.per_combo[l] for l in ("J_J_N", "J_J_T", "J_J_J")]
        others = [
            v for l, v in fig5.per_combo.items() if not l.startswith("J_J")
        ]
        assert min(jj) > max(others) - 0.05  # top tier (ties within noise)
        assert fig5.best_combo().startswith("J_J")

    def test_no_deadline_misses(self, fig5):
        """AUB admission guarantees admitted jobs meet deadlines."""
        assert fig5.deadline_misses == 0

    def test_format_renders_all_labels(self, fig5):
        text = fig5.format()
        for label in fig5.per_combo:
            assert label in text


class TestFigure6:
    def test_lb_per_task_significantly_beats_no_lb(self, fig6):
        """Paper: LB per task provides a significant improvement over no
        load balancing under imbalance."""
        means = fig6.lb_means()
        assert means["T"] > means["N"] + 0.1

    def test_lb_per_job_close_to_per_task(self, fig6):
        """Paper: not much difference between LB per task and per job."""
        means = fig6.lb_means()
        assert abs(means["J"] - means["T"]) < 0.1

    def test_groups_structure(self, fig6):
        groups = fig6.lb_groups()
        assert len(groups) == 5  # (AC, IR) pairs: T_N, T_T, J_N, J_T, J_J
        for _key, (n, t, j) in groups.items():
            assert 0.0 <= n <= 1.0 and 0.0 <= t <= 1.0 and 0.0 <= j <= 1.0

    def test_lb_per_task_never_below_no_lb_in_any_group(self, fig6):
        """Within every (AC, IR) group, LB per task does not fall below
        no LB (up to 0.02 of noise)."""
        for key, (none, per_task, _per_job) in fig6.lb_groups().items():
            assert per_task >= none - 0.02, key

    def test_no_deadline_misses(self, fig6):
        assert fig6.deadline_misses == 0


class TestFigure8:
    @pytest.fixture(
        scope="class",
        params=[
            pytest.param(dict(duration=30.0, seed=7), id="30s"),
            pytest.param(dict(duration=60.0, seed=2008), id="60s"),
        ],
    )
    def fig8(self, request):
        return run_figure8(**request.param)

    def test_all_rows_populated(self, fig8):
        names = {row.name for row in fig8.rows}
        assert names == set(PAPER_FIGURE8_USEC)

    def test_all_service_delays_below_two_ms(self, fig8):
        """The paper's headline overhead claim."""
        assert fig8.max_service_delay_usec() < 2000.0

    def test_means_within_25_percent_of_paper(self, fig8):
        for row in fig8.rows:
            paper_mean, _paper_max = PAPER_FIGURE8_USEC[row.name]
            assert row.mean_usec == pytest.approx(paper_mean, rel=0.25), row.name

    def test_realloc_costs_more_than_no_realloc(self, fig8):
        realloc = fig8.row("ac_with_lb_realloc")
        no_realloc = fig8.row("ac_with_lb_no_realloc")
        assert realloc.mean_usec > no_realloc.mean_usec

    def test_ir_ac_side_is_tiny(self, fig8):
        assert fig8.row("ir_ac_side").mean_usec < 25.0

    def test_ir_ac_side_is_an_order_below_its_other_part(self, fig8):
        """Idle resetting keeps its cost off the AC's critical path."""
        ac_side = fig8.row("ir_ac_side").mean_usec
        assert ac_side * 10 < fig8.row("ir_other_part").mean_usec

    def test_format_contains_paper_reference(self, fig8):
        assert "paper mean/max" in fig8.format()


class TestTable1:
    def test_all_categories_map_to_valid_combos(self):
        rows = run_table1()
        assert len(rows) >= 5
        for row in rows:
            assert StrategyCombo.from_label(row.combo_label).is_valid

    def test_critical_control_gets_per_task_ac(self):
        rows = {r.category: r for r in run_table1()}
        critical = rows["critical control (fail-safe chain)"]
        assert critical.combo_label.startswith("T_")

    def test_streaming_gets_per_job_everything(self):
        rows = {r.category: r for r in run_table1()}
        streaming = rows["video streaming / loss-tolerant sensing"]
        assert streaming.combo_label == "J_J_J"

    def test_unreplicated_gets_no_lb(self):
        rows = {r.category: r for r in run_table1()}
        fixed = rows["fixed-sensor pipeline (no replicas)"]
        assert fixed.combo_label.endswith("_N")

    def test_clamp_notes_surface(self):
        rows = {r.category: r for r in run_table1()}
        clamped = rows["critical + per-job resetting requested"]
        assert clamped.notes

    def test_format(self):
        assert "Table 1" in format_rows(run_table1())


class TestAblation:
    def test_policies_comparable_at_moderate_load(self):
        result = run_aub_vs_deferrable(n_sets=4, duration=60.0, seed=3)
        assert 0.0 < result.aub_mean <= 1.0
        assert 0.0 < result.ds_mean <= 1.0
        # "Comparable performance": same order of magnitude.
        assert result.aub_mean > 0.3

    def test_format(self):
        result = run_aub_vs_deferrable(n_sets=2, duration=30.0, seed=3)
        assert "Deferrable Server" in result.format()


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text

    def test_bar_chart_scales(self):
        text = bar_chart({"x": 0.5, "yy": 1.0}, width=10)
        assert "|#####     |" in text
        assert "|##########|" in text


class TestParallelRunner:
    """The multiprocessing fan-out must be bit-identical to a serial run
    and degrade gracefully when parallelism is unavailable."""

    def test_resolve_workers_precedence(self, monkeypatch):
        from repro.experiments import resolve_workers

        assert resolve_workers(3) == 3
        assert resolve_workers(0) == 1
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5
        assert resolve_workers(2) == 2  # explicit argument wins
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers() >= 1

    def test_run_cells_preserves_order(self):
        from repro.experiments import run_cells

        # pow is picklable under every start method.
        cells = [(i, 2, None) for i in range(7)]
        assert run_cells(pow, cells, n_workers=3) == [i * i for i in range(7)]
        assert run_cells(pow, cells, n_workers=1) == [i * i for i in range(7)]

    def test_run_cells_cost_ordered_dispatch_is_invisible(self):
        """A custom cost key reshuffles submission, never results."""
        from repro.experiments import run_cells

        cells = [(i, 2, None) for i in range(9)]
        # Perverse estimate (cheapest first) must still return in order.
        results = run_cells(
            pow, cells, n_workers=4, cost_key=lambda cell: -cell[0]
        )
        assert results == [i * i for i in range(9)]

    def test_estimate_cell_cost_orders_heterogeneous_scenarios(self):
        from repro.api import Scenario
        from repro.api.scenario import WorkloadSource
        from repro.experiments.runner import estimate_cell_cost
        from repro.workloads.generator import RandomWorkloadParams

        small = Scenario(
            workload=WorkloadSource.random(
                seed=1, params=RandomWorkloadParams(n_periodic=2, n_aperiodic=2)
            ),
            duration=5.0,
        )
        large = Scenario(
            workload=WorkloadSource.random(
                seed=1, params=RandomWorkloadParams(n_periodic=9, n_aperiodic=9)
            ),
            duration=60.0,
        )
        assert estimate_cell_cost((large,)) > estimate_cell_cost((small,))
        # Unrecognized cells get a neutral constant (stable order).
        assert estimate_cell_cost((1, "x", None)) == 1.0

    def test_estimate_cell_cost_orders_replay_cells_by_task_count(self):
        # The ablation's direct replay cells carry a bare Workload.
        from repro.experiments.runner import estimate_cell_cost
        from repro.sim.rng import RngRegistry
        from repro.workloads.generator import (
            RandomWorkloadParams,
            generate_random_workload,
        )

        def replay_cell_args(n_per_kind):
            workload = generate_random_workload(
                RngRegistry(1).stream("wl"),
                RandomWorkloadParams(n_periodic=n_per_kind, n_aperiodic=n_per_kind),
            )
            return (workload, 0, 11, 40.0, 2.0, 0.3, 0.1)

        small, large = replay_cell_args(2), replay_cell_args(9)
        assert estimate_cell_cost(small) == len(small[0].tasks) == 4
        assert estimate_cell_cost(large) == len(large[0].tasks) == 18

    def test_figure5_parallel_bit_identical_to_serial(self):
        combos = [StrategyCombo.from_label(l) for l in ("J_N_N", "J_J_J", "T_T_T")]
        serial = run_figure5(
            n_sets=2, duration=10.0, seed=11, combos=combos, n_workers=1
        )
        parallel = run_figure5(
            n_sets=2, duration=10.0, seed=11, combos=combos, n_workers=4
        )
        assert serial.per_combo == parallel.per_combo
        assert serial.per_combo_sets == parallel.per_combo_sets
        assert serial.deadline_misses == parallel.deadline_misses

    def test_ablation_parallel_bit_identical_to_serial(self):
        serial = run_aub_vs_deferrable(n_sets=3, duration=20.0, seed=5, n_workers=1)
        parallel = run_aub_vs_deferrable(n_sets=3, duration=20.0, seed=5, n_workers=3)
        assert serial.aub_ratios == parallel.aub_ratios
        assert serial.ds_ratios == parallel.ds_ratios

    def test_table1_routes_through_runner(self):
        rows_serial = run_table1(n_workers=1)
        rows_parallel = run_table1(n_workers=2)
        assert [r.combo_label for r in rows_serial] == [
            r.combo_label for r in rows_parallel
        ]
