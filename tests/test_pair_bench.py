"""The statistics of paired benchmark runs (tools/pair_bench.py), on canned
runs: no benchmark is run."""

import importlib.util
import json
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


JOBS = {"name": "jobs_per_s", "better": "higher", "bound": 0.25}
WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
TIGHT = {"name": "deadline_met_ratio", "better": "higher", "bound": 0.001}
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]


def test_gain_needs_nine_in_ten_pairs_and_medians_beyond_the_parent_iqr():
    change = [p * 1.05 for p in PARENT]
    assert pair_bench.verdict(PARENT, change, JOBS) == "gain"
    # The same gain read as wall time is a 5% slowdown, inside the bound.
    assert pair_bench.verdict(PARENT, change, WALL) == "within bound"
    # Eight better pairs of ten are not enough.
    assert pair_bench.verdict(PARENT, change[:8] + PARENT[8:], JOBS) == "within bound"
    # Ten better pairs whose median moved less than the parent's IQR.
    q1, _median, q3 = statistics.quantiles(PARENT, n=4, method="inclusive")
    nudged = [p + (q3 - q1) / 2 for p in PARENT]
    assert pair_bench.verdict(PARENT, nudged, JOBS) == "within bound"


def test_worse_is_a_median_beyond_the_bound_in_the_worse_direction():
    assert pair_bench.verdict(PARENT, [p * 0.74 for p in PARENT], JOBS) == "worse"
    assert pair_bench.verdict(PARENT, [p * 0.76 for p in PARENT], JOBS) == (
        "within bound"
    )
    assert pair_bench.verdict(PARENT, [p * 1.26 for p in PARENT], WALL) == "worse"


def test_unresolved_is_a_parent_spread_wider_than_the_bound():
    # The parent's IQR (0.75% of its median) is wider than a 0.1% bound.
    assert pair_bench.verdict(PARENT, list(PARENT), TIGHT) == "unresolved"
    # A median beyond that bound is still worse.
    assert pair_bench.verdict(PARENT, [p - 0.2 for p in PARENT], TIGHT) == "worse"
    # Every change run beating every parent run resolves it, gain or not.
    parent = [96.0, 97.0, 98.0, 99.0] + [100.0] * 6
    assert pair_bench.verdict(parent, [100.5] * 10, TIGHT) == "within bound"
    assert pair_bench.verdict(parent, [102.0] * 10, TIGHT) == "gain"


def test_verdict_lines_name_every_metric_in_order():
    runs = {
        "parent": [{"jobs_per_s": p, "wall_s": 1.0} for p in PARENT],
        "change": [{"jobs_per_s": p * 1.05, "wall_s": 1.0} for p in PARENT],
    }
    lines = pair_bench.verdict_lines(runs, [JOBS, WALL])
    assert lines == [
        "verdict jobs_per_s: gain (median +5.0%, better in 10/10 pairs)",
        "verdict wall_s: within bound (median +0.0%, better in 0/10 pairs)",
    ]


def test_verdict_rejects_an_unknown_direction():
    with pytest.raises(ValueError):
        pair_bench.verdict(PARENT, PARENT, {**JOBS, "better": "sideways"})


def test_identical_digest_pairs_compare_each_pair_cell_for_cell():
    digests = {
        "parent": [["a", "b"], ["a", "b"], ["a", "b"]],
        "change": [["a", "b"], ["a", "x"], ["a"]],
    }
    assert pair_bench.identical_digest_pairs(digests) == 1


#: A stand-in for ``bench_e2e/run.py``: it reports fixed metrics and
#: writes the checkout's ``digests.json`` to ``--out DIR/result.json``.
FAKE_RUN = '''
import json, sys
from pathlib import Path
out = Path(sys.argv[sys.argv.index("--out") + 1])
digests = json.loads(Path("digests.json").read_text())
(out / "result.json").write_text(json.dumps({"digests": digests}))
print(json.dumps({"correct": True, "metrics": {
    "jobs_per_s": {"value": 100.0, "unit": "jobs/s"},
    "wall_s": {"value": 1.0, "unit": "s"},
}}))
'''


def fake_checkout(root, name, digests):
    checkout = root / name
    (checkout / "bench_e2e").mkdir(parents=True)
    (checkout / "bench_e2e" / "run.py").write_text(FAKE_RUN)
    (checkout / "digests.json").write_text(json.dumps(digests))
    (checkout / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [JOBS, WALL]}))
    return checkout


@pytest.mark.parametrize(
    "change_digests, identical", [(["d0", "d1"], 2), (["d0", "dX"], 0)]
)
def test_main_reports_the_pairs_with_identical_digests(
    tmp_path, capsys, change_digests, identical
):
    parent = fake_checkout(tmp_path, "parent", ["d0", "d1"])
    change = fake_checkout(tmp_path, "change", change_digests)
    status = pair_bench.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "w", "--seconds", "0", "--pairs", "2",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    # Different digests do not change the exit status.
    assert status == 0
    assert f"digests: identical in {identical}/2 pairs" in lines
    block = json.loads(lines[-1])
    assert block["identical_digest_pairs"] == identical
    assert block["pairs"] == 2
