"""Fail when hot-path throughput or latency regresses against a baseline.

Compares a freshly measured ``BENCH_hotpath.json`` with the baseline
committed at the repo root (saved aside before the benchmark overwrote
it).  Every gated metric carries a *direction* resolved from its name
suffix through :data:`DIRECTION_BY_SUFFIX`: throughputs (``_per_sec``)
are higher-is-better and fail when they fall more than ``--tolerance``
(default 30%) below the baseline; latency quantiles (``.p99_s`` et al.)
are lower-is-better and fail when they *rise* more than the tolerance.
A gated metric whose suffix is not registered is a hard error (exit 2)
— a new metric must declare its direction before the gate will compare
it, so a latency series can never be silently gated in the throughput
direction or vice versa.

*Scales* absent from either file — e.g. rows dropped by
``REPRO_BENCH_HOTPATH_SCALES`` on the reduced CI grid — are skipped, so
the gate works on any grid subset.  Whole tracked *sections* missing
from the fresh record are a different story: that means the benchmark
did not produce what the gate expects (truncated run, stale file), so
the script exits 2 with a section-by-section message instead of
silently passing or crashing.  Baseline-side sections may be absent
(older baselines predate newer benchmarks) and are skipped as before.

``--normalize`` cancels machine speed using each file's kernel event
rate as a proxy (the kernel benchmark is pure interpreter + heap work
that none of this repo's hot-path changes target): throughputs are
*divided* by their file's kernel rate, latencies are *multiplied* by it
(a slower machine has a lower kernel rate and proportionally higher
latencies, so the product is machine-neutral).  Without the flag the
comparison is absolute (right for same-machine A/B runs).

Usage::

    python benchmarks/check_hotpath_regression.py BASELINE.json FRESH.json \
        [--tolerance 0.30] [--normalize]

Exit status: 0 all comparable metrics within tolerance, 1 regression (or
no comparable metrics at all), 2 unreadable record, tracked section
missing from the fresh file, or a gated metric with no registered
direction.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple


#: Top-level sections every complete BENCH_hotpath.json carries.  The
#: reduced CI grid drops *scales inside* admission sections, never whole
#: sections, so a missing section in a fresh record is always an error.
REQUIRED_SECTIONS = (
    "kernel_events_per_sec",
    "admission",
    "admission_batch",
    "admission_latency",
    "lb_placement_batch",
    "ledger_sharded",
)

HIGHER_IS_BETTER = "higher"
LOWER_IS_BETTER = "lower"

#: Metric-direction registry, keyed by name suffix *including* the
#: boundary character before it ("_" or ".").  The direction picks which
#: side of the tolerance band fails.  Every gated metric is a wall-clock
#: measurement, which ``--normalize`` rescales by the kernel rate.  Gated
#: metrics whose suffix is missing here make the gate exit 2 rather than
#: guess a direction.
DIRECTION_BY_SUFFIX: Dict[str, str] = {
    "_per_sec": HIGHER_IS_BETTER,
    ".p50_s": LOWER_IS_BETTER,
    ".p95_s": LOWER_IS_BETTER,
    ".p99_s": LOWER_IS_BETTER,
}


def metric_direction(name: str) -> Optional[str]:
    """The direction of a gated metric, None if unknown."""
    for suffix in sorted(DIRECTION_BY_SUFFIX, key=len, reverse=True):
        if name.endswith(suffix):
            return DIRECTION_BY_SUFFIX[suffix]
    return None


def missing_sections(data: dict) -> list:
    return [name for name in REQUIRED_SECTIONS if name not in data]


def gated_metrics(data: dict) -> Iterator[Tuple[str, float]]:
    """Every metric the gate compares, throughput and latency alike."""
    yield "kernel_events_per_sec", data.get("kernel_events_per_sec")
    for scale, row in sorted(data.get("admission", {}).items(), key=lambda kv: int(kv[0])):
        yield f"admission[{scale}].incremental_tests_per_sec", row.get(
            "incremental_tests_per_sec"
        )
    for scale, row in sorted(
        data.get("admission_batch", {}).items(), key=lambda kv: int(kv[0])
    ):
        yield f"admission_batch[{scale}].batch_tests_per_sec", row.get(
            "batch_tests_per_sec"
        )
    # Latency gates the tail: p99 is what an admission deadline cares
    # about.  p50 is reported in the record but not gated — it sits near
    # the timer floor where scheduling noise dominates.
    for scale, row in sorted(
        data.get("admission_latency", {}).items(), key=lambda kv: int(kv[0])
    ):
        yield f"admission_latency[{scale}].p99_s", row.get("p99_s")
    for scale, row in sorted(
        data.get("lb_placement_batch", {}).items(), key=lambda kv: int(kv[0])
    ):
        yield f"lb_placement_batch[{scale}].batch_placements_per_sec", row.get(
            "batch_placements_per_sec"
        )
    ledger = data.get("ledger_sharded", {})
    yield "ledger_sharded.batch_ops_per_sec", ledger.get("batch_ops_per_sec")


def _fmt(value: float) -> str:
    return f"{value:>14,.0f}" if abs(value) >= 1000 else f"{value:>14.3g}"


def compare(
    baseline: dict, fresh: dict, tolerance: float, normalize: bool = False
) -> int:
    base_scale = fresh_scale = 1.0
    if normalize:
        base_scale = baseline.get("kernel_events_per_sec") or 1.0
        fresh_scale = fresh.get("kernel_events_per_sec") or 1.0
        print(
            f"normalizing by kernel rate: baseline {base_scale:,.0f} ev/s, "
            f"fresh {fresh_scale:,.0f} ev/s"
        )
    base_metrics: Dict[str, float] = {
        name: value
        for name, value in gated_metrics(baseline)
        if value is not None
    }
    failures = 0
    checked = 0
    for name, value in gated_metrics(fresh):
        direction = metric_direction(name)
        if direction is None:
            print(
                f"gated metric {name!r} has no registered direction; add "
                "its suffix to DIRECTION_BY_SUFFIX in "
                "benchmarks/check_hotpath_regression.py before gating it",
                file=sys.stderr,
            )
            return 2
        reference = base_metrics.get(name)
        if value is None or reference is None or reference <= 0:
            continue
        if normalize and name == "kernel_events_per_sec":
            # The normalizer itself cannot gate its own comparison.
            continue
        checked += 1
        if normalize:
            if direction == HIGHER_IS_BETTER:
                ratio = (value / fresh_scale) / (reference / base_scale)
            else:
                # A slower machine has a lower kernel rate and
                # proportionally higher latency; the product cancels both.
                ratio = (value * fresh_scale) / (reference * base_scale)
        else:
            ratio = value / reference
        status = "ok"
        if direction == HIGHER_IS_BETTER:
            if ratio < 1.0 - tolerance:
                status = "REGRESSION"
                failures += 1
        elif ratio > 1.0 + tolerance:
            status = "REGRESSION"
            failures += 1
        print(
            f"  {name:<48} {_fmt(reference)} -> {_fmt(value)} "
            f"({ratio:>6.2f}x, {direction} is better)  {status}"
        )
    if checked == 0:
        print("no comparable metrics between baseline and fresh run")
        return 1
    if failures:
        print(
            f"{failures} metric(s) regressed more than "
            f"{tolerance:.0%} against the committed baseline"
        )
        return 1
    print(f"all {checked} comparable metrics within {tolerance:.0%} of baseline")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("fresh", type=Path)
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument(
        "--normalize", action="store_true",
        help="rescale wall-clock metrics by each file's kernel rate "
        "(cross-machine comparisons, e.g. committed baseline vs CI runner)",
    )
    args = parser.parse_args(argv)
    try:
        baseline = json.loads(args.baseline.read_text())
        fresh = json.loads(args.fresh.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read benchmark record: {exc}", file=sys.stderr)
        return 2
    missing = missing_sections(fresh)
    if missing:
        print(
            f"{args.fresh} is missing tracked section(s): "
            f"{', '.join(missing)}; the benchmark run was truncated or the "
            "record is stale — re-run benchmarks/test_bench_hotpath.py",
            file=sys.stderr,
        )
        return 2
    return compare(baseline, fresh, args.tolerance, args.normalize)


if __name__ == "__main__":
    sys.exit(main())
