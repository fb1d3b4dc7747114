"""The exact-count gate on traced end-to-end runs (tools/check_e2e_counts.py)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_e2e_counts.py"

#: A traced report's metrics: counts, host times and host-derived ratios.
METRICS = {
    "sim.events": (173731.0, "count"),
    "sim.events_per_job": (14.07, "events/job"),
    "net.messages": (67291.0, "count"),
    "core.dac.rounds": (12029.0, "count"),
    "sched.ledger_ops": (0.0, "count"),
    "metrics.observations": (101.0, "count"),
    "sim.self_s": (0.8, "s"),
    "core.dac.self_s": (0.4, "s"),
    "sched.test_us_mean": (3.0, "us"),
    "sched.share": (0.01, "ratio"),
    "trace.overhead_ratio": (2.5, "ratio"),
}
COUNTS = [
    "core.dac.rounds",
    "metrics.observations",
    "net.messages",
    "sched.ledger_ops",
    "sim.events",
    "sim.events_per_job",
]


def _run(tmp_path, counts, metrics):
    record = tmp_path / "record.json"
    report = tmp_path / "report.json"
    record.write_text(json.dumps({"records": [
        {"workloads": {"dist_faults": {"counts": {"sim.events": -1.0}}}},
        {"workloads": {"dist_faults": {"counts": counts}}},
    ]}))
    report.write_text(json.dumps({
        "correct": True,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return subprocess.run(
        [sys.executable, str(TOOL), str(record), str(report), "--workload", "dist_faults"],
        capture_output=True, text=True, timeout=60,
    )


def _recorded():
    return {name: METRICS[name][0] for name in COUNTS}


def test_equal_counts_pass_whatever_the_host_times(tmp_path):
    metrics = dict(METRICS)
    metrics["sim.self_s"] = (9.9, "s")
    metrics["trace.overhead_ratio"] = (7.0, "ratio")
    done = _run(tmp_path, _recorded(), metrics)
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"{len(COUNTS)} counts match" in done.stdout


@pytest.mark.parametrize("name", COUNTS)
def test_a_changed_count_fails(tmp_path, name):
    metrics = dict(METRICS)
    value, unit = metrics[name]
    metrics[name] = (value + 1.0, unit)
    done = _run(tmp_path, _recorded(), metrics)
    assert done.returncode == 1
    assert name in done.stdout


def test_a_count_missing_on_either_side_fails(tmp_path):
    recorded = _recorded()
    del recorded["net.messages"]
    assert _run(tmp_path, recorded, METRICS).returncode == 1
    metrics = dict(METRICS)
    del metrics["sim.events"]
    assert _run(tmp_path, _recorded(), metrics).returncode == 1


def test_unknown_workload_is_unreadable_input(tmp_path):
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"records": []}))
    done = subprocess.run(
        [sys.executable, str(TOOL), str(record), str(record), "--workload", "x"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
