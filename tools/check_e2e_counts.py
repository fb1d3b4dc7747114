"""Gate a traced end-to-end run's counts against the committed BENCH record.

Usage (from the repository root)::

    python3 bench_e2e/run.py --workload dist_faults --seconds 0 --trace 1 \\
        | tail -n 1 > /tmp/e2e-dist_faults.json
    python3 tools/check_e2e_counts.py BENCH_e2e.json /tmp/e2e-dist_faults.json \\
        --workload dist_faults

The report is the last output line of a ``--trace 1`` run at the default
seed and full scale.  Its count metrics are the per-layer metrics not
derived from host time; the seed fixes them, so each must equal the
newest record's value for the workload exactly.  A changed count is a
change of behaviour, to be reviewed and recorded, not noise.

Exit status: 0 every count matches, 1 a count differs or is missing on
either side, 2 unreadable input.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

#: Layers whose every per-layer metric not in seconds is a count.
COUNT_PREFIXES = ("sim.", "cpu.", "ccm.", "net.", "core.")

#: Count metrics of the other layers.
OTHER_COUNTS = frozenset({
    "sched.tests",
    "sched.batch_sessions",
    "sched.ledger_ops",
    "sched.registered_peak",
    "metrics.observations",
    "workloads.materialize_calls",
})


def is_count(name: str, unit: str) -> bool:
    """True for a per-layer metric the seed fixes (not host time)."""
    if unit == "s":
        return False
    return name.startswith(COUNT_PREFIXES) or name in OTHER_COUNTS


def report_counts(report: Dict[str, Any]) -> Dict[str, float]:
    """The count metrics of one ``bench_e2e/run.py --trace 1`` report."""
    return {
        name: metric["value"]
        for name, metric in report["metrics"].items()
        if is_count(name, metric["unit"])
    }


def compare(expected: Dict[str, float], observed: Dict[str, float]) -> List[str]:
    """One line per count that differs or is missing on either side."""
    problems = []
    for name in sorted(set(expected) | set(observed)):
        if name not in observed:
            problems.append(f"{name}: recorded {expected[name]!r}, not reported")
        elif name not in expected:
            problems.append(f"{name}: reported {observed[name]!r}, not recorded")
        elif observed[name] != expected[name]:
            problems.append(
                f"{name}: reported {observed[name]!r}, recorded {expected[name]!r}"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("record", help="the committed BENCH_e2e.json")
    parser.add_argument("report", help="last output line of a --trace 1 run")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    try:
        with open(args.record) as handle:
            records = json.load(handle)["records"]
        with open(args.report) as handle:
            report = json.load(handle)
        expected = records[-1]["workloads"][args.workload]["counts"]
        observed = report_counts(report)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"check_e2e_counts: unreadable input: {exc!r}", file=sys.stderr)
        return 2
    problems = compare(expected, observed)
    for line in problems:
        print(f"check_e2e_counts: {args.workload}: {line}")
    if problems:
        return 1
    print(f"check_e2e_counts: {args.workload}: {len(expected)} counts match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
