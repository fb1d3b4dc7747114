"""The statistics of paired benchmark runs (tools/pair_bench.py), on canned
runs: no benchmark is run."""

import importlib.util
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pair_bench.py"
_spec = importlib.util.spec_from_file_location("pair_bench", TOOL)
pair_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_bench)

METRICS = [
    {"name": "jobs_per_s", "better": "higher"},
    {"name": "wall_s", "better": "lower"},
]


def test_summary_is_median_and_inclusive_quartiles():
    runs = [13000.0, 14000.0, 12000.0, 15000.0, 11000.0]
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    assert (q1, median, q3) == (12000.0, 13000.0, 14000.0)
    assert pair_bench.summarize(runs) == {
        "median": 13000.0, "q1": 12000.0, "q3": 14000.0,
    }


def test_summary_keeps_six_significant_digits():
    assert repr(pair_bench.summarize([1.2345678, 1.2345678])["median"]) == "1.23457"


def test_better_pairs_follow_the_metric_direction_and_ties_count_for_neither():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [2.0, 2.0, 1.0, 5.0]
    assert pair_bench.better_pairs(parent, change, "higher") == 2
    assert pair_bench.better_pairs(parent, change, "lower") == 1
    with pytest.raises(ValueError):
        pair_bench.better_pairs(parent, change, "sideways")


def test_end_to_end_block_pairs_runs_in_order():
    runs = {
        "parent": [
            {"jobs_per_s": 100.0, "wall_s": 2.0},
            {"jobs_per_s": 110.0, "wall_s": 1.5},
            {"jobs_per_s": 120.0, "wall_s": 1.0},
        ],
        "change": [
            {"jobs_per_s": 105.0, "wall_s": 1.9},
            {"jobs_per_s": 110.0, "wall_s": 1.5},
            {"jobs_per_s": 119.0, "wall_s": 1.1},
        ],
    }
    block = pair_bench.end_to_end_block(runs, METRICS)
    assert block["pairs"] == 3
    jobs = block["end_to_end"]["jobs_per_s"]
    assert jobs["parent"] == {"median": 110.0, "q1": 105.0, "q3": 115.0}
    assert jobs["change"] == {"median": 110.0, "q1": 107.5, "q3": 114.5}
    # Pair 0 is better, pair 1 a tie, pair 2 worse.
    assert jobs["change_better_pairs"] == 1
    assert block["end_to_end"]["wall_s"]["change_better_pairs"] == 1
