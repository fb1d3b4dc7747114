"""Benchmark configuration.

Paper-scale knobs can be enabled with environment variables:

* ``REPRO_BENCH_DURATION``  — per-run simulated seconds (default 60; the
  paper ran 300).
* ``REPRO_BENCH_SETS``      — task sets per experiment (default 10, like
  the paper).
* ``REPRO_BENCH_HOTPATH_OUT`` — path of the hot-path record the hot-path
  and distributed-round benchmarks merge their sections into.  Unset,
  they only print, so a test run never rewrites the committed
  ``BENCH_hotpath.json``; set it to that file to refresh the baseline.

Each benchmark prints the reproduced table/figure once at the end of its
measurement so `pytest benchmarks/ --benchmark-only -s` doubles as the
report generator for EXPERIMENTS.md.
"""

import json
import os
from pathlib import Path

import pytest


def bench_duration(default: float = 60.0) -> float:
    return float(os.environ.get("REPRO_BENCH_DURATION", default))


def bench_sets(default: int = 10) -> int:
    return int(os.environ.get("REPRO_BENCH_SETS", default))


def merge_hotpath_record(sections: dict) -> None:
    """Merge ``sections`` into the record ``REPRO_BENCH_HOTPATH_OUT`` names.

    Sections other benchmarks wrote there survive, so write order does
    not matter.  Does nothing when the variable is unset or empty.
    """
    out = os.environ.get("REPRO_BENCH_HOTPATH_OUT")
    if not out:
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {}
    if path.exists():
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError:
            record = {}
    record.update(sections)
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"  wrote {path}")


@pytest.fixture(scope="session")
def duration():
    return bench_duration()


@pytest.fixture(scope="session")
def n_sets():
    return bench_sets()
