"""The deterministic metrics layer (docs/OBSERVABILITY.md).

Three contracts under test:

1. **Merge laws** — :class:`Histogram` snapshots merge order-independently
   and bit-identically (multiset union of exact samples), counters add,
   gauges take the max; the laws are what make fan-out aggregation match
   a serial run exactly.
2. **Arming is free** — a run with a :class:`MetricsRegistry` attached
   makes byte-for-byte the same admission decisions and serializes
   byte-for-byte the same legacy ``RunResult`` JSON as an unarmed run;
   the snapshot rides in a separate, optional field.
3. **Worker invariance** — folding per-cell snapshots from ``run_cells``
   gives the same exposition text at any worker count.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    RunResult,
    Scenario,
    Session,
    WorkloadSource,
    run_scenario,
)
from repro.cli import main as cli_main
from repro.experiments import run_cells


def _scenario(seed=7, distributed=False, duration=15.0):
    return Scenario(
        workload=WorkloadSource.random(seed=2008),
        engine="distributed" if distributed else "middleware",
        combo="J_N_N" if distributed else "J_J_J",
        duration=duration,
        seed=seed,
    )


def _metrics_exposition_cell(seed: int, distributed: bool) -> str:
    """Module-level (picklable) run_cells cell: one armed run's text."""
    result = run_scenario(_scenario(seed, distributed), with_metrics=True)
    assert result.metrics_snapshot is not None
    return result.metrics_snapshot.expose()


_samples = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False,
              allow_infinity=False),
    max_size=40,
)


# ----------------------------------------------------------------------
# Histogram merge laws
# ----------------------------------------------------------------------
class TestHistogramMerge:
    @staticmethod
    def _snap(values) -> HistogramSnapshot:
        histogram = Histogram()
        for value in values:
            histogram.observe(value)
        return histogram.snapshot()

    @given(_samples, _samples, _samples)
    @settings(max_examples=50, deadline=None)
    def test_merge_is_order_independent_and_bit_identical(self, a, b, c):
        left = self._snap(a).merge(self._snap(b)).merge(self._snap(c))
        right = self._snap(c).merge(self._snap(a).merge(self._snap(b)))
        swapped = self._snap(b).merge(self._snap(c)).merge(self._snap(a))
        assert left == right == swapped
        assert (
            json.dumps(left.to_json())
            == json.dumps(right.to_json())
            == json.dumps(swapped.to_json())
        )

    @given(_samples)
    @settings(max_examples=50, deadline=None)
    def test_merge_with_empty_is_identity(self, values):
        snap = self._snap(values)
        assert snap.merge(self._snap([])) == snap
        assert self._snap([]).merge(snap) == snap

    @given(_samples)
    @settings(max_examples=50, deadline=None)
    def test_quantiles_are_observed_samples(self, values):
        snap = self._snap(values)
        if not values:
            with pytest.raises(ValueError):
                snap.quantile(0.99)
            return
        ordered = sorted(values)
        assert snap.quantile(0.0) == ordered[0]
        assert snap.quantile(1.0) == ordered[-1]
        for q in (0.5, 0.95, 0.99):
            assert snap.quantile(q) in values
        counts = snap.bucket_counts()
        assert counts[-1] == len(values)
        assert list(counts) == sorted(counts)

    def test_json_round_trip(self):
        snap = self._snap([0.0012, 0.5, 3.25])
        again = HistogramSnapshot.from_json(snap.to_json())
        assert again == snap

    def test_rejects_non_finite_and_bucket_mismatch(self):
        histogram = Histogram()
        with pytest.raises(ValueError):
            histogram.observe(float("nan"))
        with pytest.raises(ValueError):
            histogram.observe(float("inf"))
        other = Histogram(buckets=(1.0, 2.0))
        other.observe(0.5)
        with pytest.raises(ValueError):
            histogram.snapshot().merge(other.snapshot())


# ----------------------------------------------------------------------
# Registry and snapshot semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_and_exposition(self):
        registry = MetricsRegistry()
        decisions = registry.counter(
            "repro_admission_decisions_total", "admission outcomes",
            labelnames=("outcome",),
        )
        decisions.labels("accept").inc()
        decisions.labels("accept").inc()
        decisions.labels("reject").inc()
        depth = registry.gauge("repro_queue_depth", "queue high-water")
        depth.labels().set(4.0)
        latency = registry.histogram(
            "repro_decision_seconds", "decision latency",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        latency.labels().observe(0.002)
        text = registry.expose()
        assert '# TYPE repro_admission_decisions_total counter' in text
        assert 'repro_admission_decisions_total{outcome="accept"} 2' in text
        assert 'repro_admission_decisions_total{outcome="reject"} 1' in text
        assert "repro_queue_depth 4" in text
        assert '# TYPE repro_decision_seconds histogram' in text
        assert 'repro_decision_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_decision_seconds_count 1" in text
        assert text.endswith("\n")

    def test_schema_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total", "things", labelnames=("kind",))
        with pytest.raises(ValueError):
            registry.counter("repro_things_total", "things")
        with pytest.raises(ValueError):
            registry.gauge("repro_things_total", "things", labelnames=("kind",))

    def test_snapshot_merge_per_kind(self):
        def build(count, gauge_value, latency):
            registry = MetricsRegistry()
            registry.counter("repro_events_total", "events").labels().inc(count)
            registry.gauge("repro_depth", "depth").labels().set(gauge_value)
            registry.histogram(
                "repro_lat_seconds", "lat"
            ).labels().observe(latency)
            return registry.snapshot()

        one = build(3.0, 2.0, 0.01)
        two = build(4.0, 5.0, 0.02)
        merged = one.merge(two)
        # Integral by construction (counters add exact event counts,
        # gauges take the max), so integer equality is safe here.
        assert int(dict(merged.family("repro_events_total").series)[()]) == 7
        assert int(dict(merged.family("repro_depth").series)[()]) == 5
        histogram = dict(merged.family("repro_lat_seconds").series)[()]
        assert histogram.count == 2
        # Commutative: both merge orders expose identical text.
        assert merged.expose() == two.merge(one).expose()

    def test_snapshot_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_events_total", "events", labelnames=("node",)
        ).labels('dre "1"\\n').inc(2.0)
        snap = registry.snapshot()
        again = MetricsSnapshot.from_json(snap.to_json())
        assert again == snap
        assert again.expose() == snap.expose()


# ----------------------------------------------------------------------
# Arming is free: decision and serialization parity
# ----------------------------------------------------------------------
def _legacy_json(result) -> str:
    data = result.to_json()
    data.pop("metrics_snapshot", None)
    return json.dumps(data, sort_keys=True)


class TestArmedParity:
    @pytest.mark.parametrize("distributed", [False, True])
    def test_armed_run_is_bit_identical(self, distributed):
        scenario = _scenario(distributed=distributed)
        plain = Session(scenario).run()
        armed_registry = MetricsRegistry()
        armed = Session(scenario, metrics=armed_registry).run()
        assert "metrics_snapshot" not in plain.to_json()
        assert _legacy_json(armed) == _legacy_json(plain)
        assert armed.metrics_snapshot is not None
        assert armed.metrics_snapshot.family("repro_admission_decisions_total")

    def test_run_result_round_trips_snapshot(self):
        result = run_scenario(_scenario(), with_metrics=True)
        again = RunResult.from_json(result.to_json())
        assert again.metrics_snapshot == result.metrics_snapshot
        assert json.dumps(again.to_json(), sort_keys=True) == json.dumps(
            result.to_json(), sort_keys=True
        )

    def test_decision_latency_histogram_is_populated(self):
        result = run_scenario(_scenario(), with_metrics=True)
        family = result.metrics_snapshot.family(
            "repro_admission_decision_seconds"
        )
        total = sum(snap.count for _, snap in family.series)
        decisions = result.metrics_snapshot.family(
            "repro_admission_decisions_total"
        )
        outcomes = sum(value for _, value in decisions.series)
        assert total == outcomes > 0


# ----------------------------------------------------------------------
# Worker invariance and the CLI surface
# ----------------------------------------------------------------------
class TestWorkerInvariance:
    def test_run_cells_exposition_is_worker_invariant(self):
        cells = [(11, False), (12, False)]
        serial = run_cells(_metrics_exposition_cell, cells, n_workers=1)
        parallel = run_cells(_metrics_exposition_cell, cells, n_workers=2)
        assert serial == parallel

    def test_fold_order_matches_serial(self):
        results = [
            run_scenario(_scenario(seed), with_metrics=True)
            for seed in (11, 12)
        ]
        merged = results[0].metrics_snapshot.merge(results[1].metrics_snapshot)
        remerged = results[1].metrics_snapshot.merge(
            results[0].metrics_snapshot
        )
        assert merged.expose() == remerged.expose()


class TestMetricsCli:
    def test_metrics_command_writes_exposition(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(_scenario(duration=5.0).to_json_str())
        out = tmp_path / "metrics.prom"
        result_json = tmp_path / "result.json"
        assert cli_main(
            [
                "metrics", str(scenario_path),
                "--out", str(out), "--json", str(result_json),
            ]
        ) == 0
        capsys.readouterr()
        text = out.read_text()
        assert "# TYPE repro_admission_decisions_total counter" in text
        payload = json.loads(result_json.read_text())
        assert "metrics_snapshot" in payload

    def test_metrics_command_prints_to_stdout(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(_scenario(duration=5.0).to_json_str())
        assert cli_main(["metrics", str(scenario_path)]) == 0
        assert "repro_admission_decisions_total" in capsys.readouterr().out
