"""Paired end-to-end benchmark runs of a parent and a change checkout.

Usage (from the repository root)::

    python3 tools/pair_bench.py --parent ../parent --change . \\
        --workload paper_grid --seed 2008 --seconds 30 --pairs 10

Each pair runs ``python3 bench_e2e/run.py --workload W --seed S --seconds T``
once in each checkout, one after the other; even pairs run the parent
first, odd pairs the change, so a drift of the host's speed does not
favour one side.  Every run's end-to-end metrics are printed as it
finishes.  The last output line is one JSON object in the shape of a
workload's entry in ``BENCH_e2e.json``: ``pairs`` and, per end-to-end
metric of the change checkout's ``BENCHMARK.json`` (read, never
written), each side's median and quartiles
(``statistics.quantiles(runs, n=4, method="inclusive")``) and
``change_better_pairs``, the pairs in which the change read strictly
better by the metric's ``better`` direction (a tie counts for neither).
Before it, one line per metric gives its verdict (:func:`verdict`):
``gain``, ``worse``, ``unresolved`` or ``within bound``.

Each run also writes its ``result.json`` (``--out``) into a temporary
directory, and the tool compares both sides' per-cell ``digests`` pair
by pair: one line says in how many pairs they were identical, and the
JSON block holds that count as ``identical_digest_pairs``.  At a seed
without committed reference digests this is what shows that the change
still simulates the same thing.

Exit status: 0 every run reported ``"correct": true`` and no metric's
verdict is ``worse``; 1 some run did not, or some metric reads
``worse``; 2 a run's output was unreadable.  So the tool is also the
host-time gate: both sides run on one machine and share its speed,
where a committed record carries the speed of the machine and session
that wrote it.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The two checkouts, in the order an even pair runs them.
SIDES = ("parent", "change")


def _sig(value: float) -> float:
    """``value`` to the six significant digits the records keep."""
    return float(f"{value:.6g}")


def summarize(runs: Sequence[float]) -> Dict[str, float]:
    """Median and inclusive quartiles of one side's runs."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": _sig(median), "q1": _sig(q1), "q3": _sig(q3)}


def better_pairs(
    parent: Sequence[float], change: Sequence[float], better: str
) -> int:
    """Pairs in which the change is strictly better; ties count for neither."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    raise ValueError(f"unknown direction {better!r}")


def verdict(
    parent: Sequence[float], change: Sequence[float], metric: Dict[str, Any]
) -> str:
    """How paired runs of one metric read against its ``BENCHMARK.json``
    entry (``better`` direction, relative ``bound``).

    ``gain``: the change is better in at least nine tenths of the pairs
    and its median is further from the parent's, on the better side, than
    the parent's interquartile range.  ``worse``: the change's median is
    worse than the parent's by more than ``bound`` times the parent's
    median.  ``unresolved``: the parent's interquartile range is wider
    than that bound and not every change run beats every parent run.
    Otherwise ``within bound``.
    """
    pairs = better_pairs(parent, change, metric["better"])
    sign = 1.0 if metric["better"] == "higher" else -1.0
    q1, parent_median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gained = sign * (statistics.median(change) - parent_median)
    if 10 * pairs >= 9 * len(change) and gained > q3 - q1:
        return "gain"
    allowed = metric["bound"] * abs(parent_median)
    if -gained > allowed:
        return "worse"
    # Every change run better than every parent run.
    swept = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > allowed and not swept:
        return "unresolved"
    return "within bound"


def paired(
    runs: Dict[str, List[Dict[str, float]]], name: str
) -> Tuple[List[float], List[float]]:
    """One metric's values on the parent and the change side, pair by pair."""
    return [run[name] for run in runs["parent"]], [run[name] for run in runs["change"]]


def verdict_lines(
    runs: Dict[str, List[Dict[str, float]]], metrics: Sequence[Dict[str, Any]]
) -> List[str]:
    """One ``verdict <metric>: <verdict> (...)`` line per metric."""
    lines = []
    for metric in metrics:
        name = metric["name"]
        parent, change = paired(runs, name)
        parent_median = statistics.median(parent)
        shift = statistics.median(change) / parent_median - 1.0
        lines.append(
            f"verdict {name}: {verdict(parent, change, metric)} "
            f"(median {shift:+.1%}, "
            f"better in {better_pairs(parent, change, metric['better'])}"
            f"/{len(change)} pairs)"
        )
    return lines


def end_to_end_block(
    runs: Dict[str, List[Dict[str, float]]], metrics: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """The record block of paired runs: ``runs[side][i]`` is pair i's
    metric values on that side; ``metrics`` is BENCHMARK.json's
    ``end_to_end`` list."""
    block: Dict[str, Any] = {"pairs": len(runs["change"]), "end_to_end": {}}
    for metric in metrics:
        name = metric["name"]
        parent, change = paired(runs, name)
        block["end_to_end"][name] = {
            "parent": summarize(parent),
            "change": summarize(change),
            "change_better_pairs": better_pairs(parent, change, metric["better"]),
        }
    return block


def identical_digest_pairs(digests: Dict[str, List[List[str]]]) -> int:
    """Pairs in which both sides' per-cell digests were identical."""
    return sum(p == c for p, c in zip(digests["parent"], digests["change"]))


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float
) -> Tuple[Dict[str, Any], List[str]]:
    """One benchmark run in ``checkout``: the report of its last line and
    the per-cell digests of its ``result.json``."""
    with tempfile.TemporaryDirectory() as out:
        command = [
            sys.executable, "bench_e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--out", out,
        ]
        completed = subprocess.run(
            command, cwd=checkout, capture_output=True, text=True, check=False
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            raise ValueError(
                f"{checkout}: exit {completed.returncode}: {completed.stderr[-2000:]}"
            )
        report: Dict[str, Any] = json.loads(lines[-1])
        result = json.loads((Path(out) / "result.json").read_text())
    return report, list(result["digests"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    checkouts = {"parent": args.parent, "change": args.change}
    runs: Dict[str, List[Dict[str, float]]] = {side: [] for side in SIDES}
    digests: Dict[str, List[List[str]]] = {side: [] for side in SIDES}
    all_correct = True
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            try:
                report, cells = run_once(
                    checkouts[side], args.workload, args.seed, args.seconds
                )
                values = {
                    m["name"]: float(report["metrics"][m["name"]]["value"])
                    for m in metrics
                }
            except (ValueError, KeyError, TypeError, OSError) as exc:
                print(f"pair_bench: unreadable run: {exc}", file=sys.stderr)
                return 2
            correct = report.get("correct") is True
            all_correct = all_correct and correct
            runs[side].append(values)
            digests[side].append(cells)
            shown = " ".join(f"{name}={value:.6g}" for name, value in values.items())
            print(f"pair {pair} {side:6s} correct={correct} {shown}", flush=True)
    for line in verdict_lines(runs, metrics):
        print(line)
    same = identical_digest_pairs(digests)
    print(f"digests: identical in {same}/{args.pairs} pairs")
    block = end_to_end_block(runs, metrics)
    block["identical_digest_pairs"] = same
    print(json.dumps(block))
    worse = any(verdict(*paired(runs, m["name"]), m) == "worse" for m in metrics)
    return 0 if all_correct and not worse else 1


if __name__ == "__main__":
    sys.exit(main())
