"""Exit-code contract of ``check_hotpath_regression.py``.

0: all comparable metrics within tolerance.  1: a regression (or nothing
comparable).  2: unreadable record, or a tracked section missing from
the fresh file — distinct so CI can tell "the hot path got slower" from
"the benchmark never produced the numbers".
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import check_hotpath_regression  # noqa: E402
from check_hotpath_regression import (  # noqa: E402
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    REQUIRED_SECTIONS,
    main,
    metric_direction,
)


def _record(rate=100_000.0, p99=2e-5, kernel=1_000_000.0):
    return {
        "kernel_events_per_sec": kernel,
        "admission": {"100": {"incremental_tests_per_sec": rate}},
        "admission_batch": {"100": {"batch_tests_per_sec": rate}},
        "admission_latency": {
            "100": {"p50_s": p99 / 4.0, "p95_s": p99 / 2.0, "p99_s": p99}
        },
        "lb_placement_batch": {"100": {"batch_placements_per_sec": rate}},
        "ledger_sharded": {"batch_ops_per_sec": rate},
    }


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_clean_pass_exits_zero(tmp_path, capsys):
    argv = [
        _write(tmp_path, "base.json", _record()),
        _write(tmp_path, "fresh.json", _record()),
    ]
    assert main(argv) == 0
    capsys.readouterr()


def test_regression_exits_one(tmp_path, capsys):
    argv = [
        _write(tmp_path, "base.json", _record(rate=100_000.0)),
        _write(tmp_path, "fresh.json", _record(rate=10_000.0)),
    ]
    assert main(argv) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_missing_tracked_section_exits_two(tmp_path, capsys):
    fresh = _record()
    del fresh["ledger_sharded"]
    argv = [
        _write(tmp_path, "base.json", _record()),
        _write(tmp_path, "fresh.json", fresh),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "missing tracked section(s): ledger_sharded" in err


def test_missing_file_exits_two(tmp_path, capsys):
    argv = [
        _write(tmp_path, "base.json", _record()),
        str(tmp_path / "nope.json"),
    ]
    assert main(argv) == 2
    assert "cannot read benchmark record" in capsys.readouterr().err


def test_dropped_scale_rows_still_skip(tmp_path, capsys):
    # The reduced CI grid drops scales *inside* sections; that must stay
    # a skip, not an error and not a failure.
    fresh = _record()
    fresh["admission"] = {}
    argv = [
        _write(tmp_path, "base.json", _record()),
        _write(tmp_path, "fresh.json", fresh),
    ]
    assert main(argv) == 0
    capsys.readouterr()


def test_latency_rise_is_a_regression(tmp_path, capsys):
    # p99 is lower-is-better: a 10x latency increase must fail even
    # though every throughput is unchanged.
    argv = [
        _write(tmp_path, "base.json", _record(p99=2e-5)),
        _write(tmp_path, "fresh.json", _record(p99=2e-4)),
    ]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "admission_latency[100].p99_s" in out
    assert "REGRESSION" in out


def test_latency_drop_passes(tmp_path, capsys):
    # Getting faster is never a regression in either direction.
    argv = [
        _write(tmp_path, "base.json", _record(p99=2e-4)),
        _write(tmp_path, "fresh.json", _record(p99=2e-5)),
    ]
    assert main(argv) == 0
    capsys.readouterr()


def test_normalize_cancels_machine_speed_both_directions(tmp_path, capsys):
    # A uniformly 2x-slower machine: kernel rate and throughputs halve,
    # latency doubles.  Normalized, everything is a 1.00x ratio.
    base = _record(rate=100_000.0, p99=2e-5, kernel=1_000_000.0)
    slow = _record(rate=50_000.0, p99=4e-5, kernel=500_000.0)
    argv = [
        _write(tmp_path, "base.json", base),
        _write(tmp_path, "fresh.json", slow),
        "--normalize",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    # Without --normalize the same pair regresses in both directions.
    assert main(argv[:2]) == 1
    assert capsys.readouterr().out.count("REGRESSION") >= 2


def test_unknown_suffix_exits_two(tmp_path, capsys, monkeypatch):
    real = check_hotpath_regression.gated_metrics

    def with_rogue_metric(data):
        yield from real(data)
        yield "admission_latency[100].p99_microfortnights", 1.0

    monkeypatch.setattr(
        check_hotpath_regression, "gated_metrics", with_rogue_metric
    )
    argv = [
        _write(tmp_path, "base.json", _record()),
        _write(tmp_path, "fresh.json", _record()),
    ]
    assert main(argv) == 2
    assert "no registered direction" in capsys.readouterr().err


def test_metric_direction_registry():
    assert (
        metric_direction("admission[100].incremental_tests_per_sec")
        == HIGHER_IS_BETTER
    )
    assert metric_direction("admission_latency[1000].p99_s") == LOWER_IS_BETTER
    assert metric_direction("something.p99_seconds") is None


def test_committed_record_has_every_tracked_section():
    committed = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCH_hotpath.json").read_text()
    )
    assert all(section in committed for section in REQUIRED_SECTIONS)
