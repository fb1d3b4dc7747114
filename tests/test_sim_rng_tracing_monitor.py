"""Unit tests for RNG streams and statistics collectors."""

import math

import pytest

from repro.sim.monitor import StatSeries, TimeWeightedStat
from repro.sim.rng import RngRegistry


# ----------------------------------------------------------------------
# RngRegistry
# ----------------------------------------------------------------------
class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        rngs = RngRegistry(1)
        assert rngs.stream("a") is rngs.stream("a")

    def test_streams_are_independent_of_draw_order(self):
        r1 = RngRegistry(7)
        a_first = [r1.stream("a").random() for _ in range(3)]
        r2 = RngRegistry(7)
        r2.stream("b").random()  # interleaved draw on another stream
        a_second = [r2.stream("a").random() for _ in range(3)]
        assert a_first == a_second

    def test_different_seeds_give_different_sequences(self):
        a = RngRegistry(1).stream("x").random()
        b = RngRegistry(2).stream("x").random()
        assert a != b

    def test_different_names_give_different_sequences(self):
        rngs = RngRegistry(3)
        assert rngs.stream("x").random() != rngs.stream("y").random()

    def test_spawn_derives_stable_child(self):
        a = RngRegistry(5).spawn("child").stream("s").random()
        b = RngRegistry(5).spawn("child").stream("s").random()
        assert a == b

    def test_spawn_differs_from_parent(self):
        parent = RngRegistry(5)
        child = parent.spawn("child")
        assert parent.master_seed != child.master_seed


# ----------------------------------------------------------------------
# StatSeries
# ----------------------------------------------------------------------
class TestStatSeries:
    def test_empty_stats(self):
        s = StatSeries()
        assert s.mean == 0.0
        assert s.count == 0
        assert s.variance == 0.0

    def test_basic_moments(self):
        s = StatSeries()
        for v in (2.0, 4.0, 6.0):
            s.add(v)
        assert s.mean == pytest.approx(4.0)
        assert s.minimum == 2.0
        assert s.maximum == 6.0
        assert s.variance == pytest.approx(8.0 / 3.0)
        assert s.stdev == pytest.approx(math.sqrt(8.0 / 3.0))

    def test_keep_samples(self):
        s = StatSeries(keep_samples=True)
        s.add(1.0)
        s.add(2.0)
        assert s.samples == [1.0, 2.0]

    def test_samples_not_kept_by_default(self):
        s = StatSeries()
        s.add(1.0)
        assert s.samples == []

    def test_merge_combines(self):
        a = StatSeries()
        b = StatSeries()
        a.add(1.0)
        b.add(3.0)
        a.merge(b)
        assert a.count == 2
        assert a.mean == pytest.approx(2.0)
        assert a.maximum == 3.0


# ----------------------------------------------------------------------
# TimeWeightedStat
# ----------------------------------------------------------------------
class TestTimeWeightedStat:
    def test_constant_signal(self):
        tw = TimeWeightedStat(initial=2.0)
        assert tw.average(10.0) == pytest.approx(2.0)

    def test_step_signal(self):
        tw = TimeWeightedStat()
        tw.update(1.0, 1.0)
        assert tw.average(2.0) == pytest.approx(0.5)

    def test_multiple_steps(self):
        tw = TimeWeightedStat()
        tw.update(1.0, 1.0)
        tw.update(2.0, 0.0)
        tw.update(3.0, 2.0)
        # areas: 0*1 + 1*1 + 0*1 + 2*1 over 4 seconds
        assert tw.average(4.0) == pytest.approx(0.75)

    def test_peak_tracks_maximum(self):
        tw = TimeWeightedStat()
        tw.update(1.0, 5.0)
        tw.update(2.0, 1.0)
        assert tw.peak == 5.0

    def test_time_cannot_go_backwards(self):
        tw = TimeWeightedStat()
        tw.update(2.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(1.0, 0.0)

    def test_average_before_last_update_rejected(self):
        tw = TimeWeightedStat()
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.average(4.0)

    def test_value_property(self):
        tw = TimeWeightedStat()
        tw.update(1.0, 3.0)
        assert tw.value == 3.0
