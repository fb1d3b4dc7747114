"""Where the AUB guarantee holds, and where the theory says it breaks.

The guarantee (every admitted job meets its end-to-end deadline) rests
on known execution times and on middleware and network overheads small
next to the deadlines.  Each test runs ``Scenario`` values directly and
checks that the middleware fails the way the theory predicts:

* an arrival burst turns into rejections, not missed deadlines;
* a processor slowdown breaks the known-execution-time assumption, and
  admitted jobs miss deadlines;
* calibrated middleware costs barely move acceptance, and costs a
  hundred times larger still leave every arrival released or rejected;
* every message sees the configured network delay, and a 50 ms one-way
  delay leaves the centralized AC's view stale, so admitted jobs miss
  deadlines, where 1 ms does not.
"""

import pytest

from repro.api import Burst, Scenario, Slowdown, WorkloadSource, run_scenario
from repro.core.cost_model import CostModel
from repro.net.latency import ConstantDelay


def _run(combo, duration=40.0, **fields):
    return run_scenario(
        Scenario(
            workload=WorkloadSource.random(seed=3, stream="wl"),
            combo=combo,
            duration=duration,
            seed=3,
            **fields,
        )
    )


class TestBurstScenario:
    @pytest.fixture(scope="class")
    def calm_and_stormy(self):
        burst = Burst(time=10.0, jobs=25)
        return _run("J_J_N"), _run("J_J_N", disturbances=(burst,))

    def test_burst_sheds_load_without_misses(self, calm_and_stormy):
        calm, stormy = calm_and_stormy
        assert stormy.deadline_misses == 0, (
            "overload must become rejections, not missed deadlines"
        )
        assert stormy.rejected_jobs > calm.rejected_jobs, (
            "the burst must exceed capacity"
        )

    def test_burst_lowers_acceptance_vs_baseline(self, calm_and_stormy):
        calm, stormy = calm_and_stormy
        assert (
            stormy.accepted_utilization_ratio
            < calm.accepted_utilization_ratio
        )


class TestSlowdownScenario:
    def test_slowdown_breaks_the_guarantee(self):
        result = _run("J_N_N", disturbances=(Slowdown(time=10.0, factor=0.2),))
        assert result.deadline_misses > 0, (
            "violating the WCET assumption must surface as deadline misses"
        )

    def test_no_slowdown_keeps_guarantee(self):
        result = _run("J_N_N", disturbances=(Slowdown(time=10.0, factor=1.0),))
        assert result.deadline_misses == 0


class TestLoadCostAndDelay:
    def test_heavier_load_lowers_acceptance(self):
        runs = [_run("J_J_J", aperiodic_interarrival_factor=f) for f in (4.0, 1.0, 0.5)]
        ratios = [run.accepted_utilization_ratio for run in runs]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[0] > ratios[-1], "light load must be accepted more"

    def test_calibrated_overheads_negligible(self):
        zero = _run("J_J_J", cost_model=CostModel.zero())
        calibrated = _run("J_J_J", cost_model=CostModel())
        assert calibrated.accepted_utilization_ratio == pytest.approx(
            zero.accepted_utilization_ratio, abs=0.05
        )

    def test_extreme_overheads_do_not_break_invariants(self):
        calibrated = _run("J_J_J", duration=20.0, cost_model=CostModel())
        extreme = _run("J_J_J", duration=20.0, cost_model=CostModel().scaled(100.0))
        assert extreme.arrived_jobs == extreme.released_jobs + extreme.rejected_jobs
        assert extreme.completed_jobs == extreme.released_jobs
        assert 0.0 <= extreme.accepted_utilization_ratio <= 1.0
        # The scaled costs reach the AC's critical path.
        path = "ac_with_lb_realloc"
        assert extreme.overhead[path].mean > 10 * calibrated.overhead[path].mean

    def test_small_delays_equivalent(self):
        lan = _run("J_J_J", delay_model=ConstantDelay(0.0003))
        slower = _run("J_J_J", delay_model=ConstantDelay(0.001))
        assert lan.accepted_utilization_ratio == pytest.approx(
            slower.accepted_utilization_ratio, abs=0.05
        )

    @pytest.mark.parametrize("delay", [0.001, 0.05])
    def test_messages_see_the_configured_delay(self, delay):
        run = _run("J_J_J", delay_model=ConstantDelay(delay))
        assert run.comm_delay.mean == pytest.approx(delay)

    def test_large_delay_breaks_admission_guarantee(self):
        """At LAN-scale delays the AUB guarantee holds; at 50 ms one-way
        the centralized AC's view goes stale and deadline misses appear —
        the scalability limit the paper's section 3 discussion alludes to."""
        lan = _run("J_J_J", delay_model=ConstantDelay(0.001))
        wan = _run("J_J_J", delay_model=ConstantDelay(0.05))
        assert lan.deadline_misses == 0
        assert wan.deadline_misses > 0
