"""The availability-under-failure grid: shape, invariants, determinism."""

from __future__ import annotations

from typing import List

from repro.experiments.chaos import ChaosResult, build_chaos_suite, run_chaos_suite
from repro.json_checks import encode

EXPECTED_CELLS = (
    "baseline",
    "crash_recover",
    "crash_forever",
    "partition",
    "message_loss",
    "delay_spike",
)


def test_suite_shape():
    suite = build_chaos_suite(duration=10.0)
    assert tuple(c.label for c in suite.cells) == EXPECTED_CELLS
    assert all(c.engine == "distributed" for c in suite.cells)


def test_grid_results_and_worker_count_determinism():
    serial = run_chaos_suite(duration=10.0, n_workers=1)
    parallel = run_chaos_suite(duration=10.0, n_workers=3)
    assert encode(serial, List[ChaosResult]) == encode(parallel, List[ChaosResult])

    by_label = {r.scenario: r for r in serial}
    assert set(by_label) == set(EXPECTED_CELLS)
    for res in serial:
        # Conservation holds in every cell, faulty or not.
        assert res.arrived_jobs == res.released_jobs + res.rejected_jobs
        assert 0.0 <= res.availability <= 1.0
    # The baseline saw no chaos; fault cells actually injected faults.
    baseline = by_label["baseline"]
    assert baseline.messages_dropped == 0
    assert baseline.vote_timeouts == 0
    assert by_label["message_loss"].messages_dropped > 0
