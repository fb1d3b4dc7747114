"""End-to-end benchmark of whole ``Session`` runs over seeded scenario grids.

Usage (from the repository root)::

    python3 bench_e2e/run.py --workload paper_grid --seed 2008 --seconds 30 --trace 0

One process, one cell in flight: the grid's cells run one after another
(a closed loop), and the whole grid is run again while the time budget
lasts.  Every cell's ``RunResult`` is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of separately traced passes (see layer_trace.py).
Nothing is written unless ``--out DIR`` is given.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference_digests.json"

#: The program layers' self times must add up to the traced pass's wall
#: time within this share of it: the root span's own time (the benchmark
#: loop, and any callback of no known layer) may not exceed it.
SELF_TIME_TOLERANCE = 0.01

#: Host seconds one calibration loop takes at the reference speed; an
#: untraced pass reports host time scaled to that speed (see
#: ``calibration_seconds``).
CALIBRATION_REFERENCE_S = 0.002

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MB",
    "accepted_utilization_ratio": "ratio",
    "deadline_met_ratio": "ratio",
}

#: Self-time metric -> span label (see layer_trace.py).
SELF_TIME_LABELS = {
    "api.scenario_s": "api.scenario",
    "api.session_s": "api.session",
    "workloads.materialize_s": "workloads",
    "api.deploy_s": "api.deploy",
    "ccm.activate_s": "ccm.activate",
    "api.run_s": "api.run",
    "sim.self_s": "sim",
    "cpu.self_s": "cpu",
    "ccm.self_s": "ccm",
    "net.self_s": "net",
    "core.ac.self_s": "core.ac",
    "core.lb.self_s": "core.lb",
    "core.ir.self_s": "core.ir",
    "core.te.self_s": "core.te",
    "core.subtask.self_s": "core.subtask",
    "core.dac.self_s": "core.dac",
    "sched.test_s": "sched.test",
    "sched.aub_s": "sched.aub",
    "sched.ledger_s": "sched.ledger",
    "sched.prune_s": "sched.prune",
    "sched.registry_s": "sched.registry",
    "metrics.self_s": "metrics",
    "bench.other_s": "bench.other",
}

#: Per-layer metrics; a count not derived in ``per_layer_metrics`` is
#: read by name from the tracer's counts or the pass totals.
PER_LAYER_UNITS = {
    "workloads.materialize_calls": "count",
    "ccm.components_installed": "count",
    "sim.events": "count",
    "sim.events_per_job": "events/job",
    "sim.schedule_calls": "count",
    "sim.cancel_ratio": "ratio",
    "sim.peak_pending": "events",
    "cpu.work_items": "count",
    "ccm.events_pushed": "count",
    "net.messages": "count",
    "net.messages_per_job": "msgs/job",
    "net.dropped_ratio": "ratio",
    "core.ac.batch_size_mean": "arrivals/batch",
    "core.dac.rounds": "count",
    "core.dac.reserve_messages_per_decision": "msgs/decision",
    "core.dac.timeouts": "count",
    "core.dac.retries": "count",
    "core.dac.aborts": "count",
    "sched.tests": "count",
    "sched.test_us_mean": "us",
    "sched.batch_sessions": "count",
    "sched.ledger_ops": "count",
    "sched.registered_peak": "tasks",
    "metrics.observations": "count",
    "sched.self_s": "s",
    "sched.share": "ratio",
    "net_dac.share": "ratio",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER_UNITS.update({name: "s" for name in SELF_TIME_LABELS})


def import_program() -> None:
    """Put this checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench_e2e: no program sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"bench_e2e: imported repro from {repro.__file__}, not {SRC}")


def calibration_seconds() -> float:
    """Host time of a fixed pure-Python loop shaped like the kernel's hot
    path (heap pushes and pops, dict updates).

    A 2-vCPU VM shared with other tenants changes speed by 20-40% for
    seconds to minutes at a time.  Running this loop between cells and
    scaling each cell's host time by ``CALIBRATION_REFERENCE_S`` over the
    loop's time next to it cancels most of that: on such a VM the
    pass-to-pass spread of ``paper_grid`` fell from 20% to 3-8%.  The loop
    belongs to the benchmark, so a faster program still reads faster.

    The loop must not time the program's garbage: it allocates no object
    the collector tracks (the heap holds ints) and runs with automatic
    collection off, so a collection the program's allocations have made
    due runs in the program's next cell, not here.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: List[int] = []
        table: Dict[int, int] = {}
        for i in range(3900):
            heapq.heappush(heap, (i * 7919) % 1009 << 16 | i)
            table[i % 97] = table.get(i % 97, 0) + 1
        while heap:
            heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Pass:
    """One run of a whole grid, timed from the first Scenario construction
    to the last RunResult."""

    #: Calibrated seconds (host seconds on a traced pass).
    setup: float = 0.0
    run: float = 0.0
    #: Host seconds, as measured.
    raw_setup: float = 0.0
    raw_run: float = 0.0
    #: Host seconds of the whole pass, calibration loops included.
    elapsed: float = 0.0
    jobs: int = 0
    labels: List[str] = field(default_factory=list)
    fault_free: List[bool] = field(default_factory=list)
    #: RunResult per cell (None if it raised); emptied once checked, so
    #: memory does not grow with the number of passes.
    results: List[Any] = field(default_factory=list)
    #: Sums over the checked RunResults, plus the public component
    #: counters gathered after each cell of a traced pass.
    totals: Dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.setup + self.run

    @property
    def raw_wall(self) -> float:
        return self.raw_setup + self.raw_run

    def add(self, setup: float, run: float, scale: float) -> None:
        self.raw_setup += setup
        self.raw_run += run
        self.setup += setup * scale
        self.run += run * scale


def digest(result: Any) -> str:
    return hashlib.sha256(result.to_json_str().encode()).hexdigest()


def _add(totals: Dict[str, float], name: str, value: float) -> None:
    totals[name] = totals.get(name, 0) + value


def _component_counts(system: Any, totals: Dict[str, float]) -> None:
    """Public counters of the deployed admission components."""
    ac = getattr(system, "ac", None)
    if ac is not None:
        _add(totals, "sched.tests", ac.analyzer.tests_performed)
        _add(totals, "sched.batch_sessions", ac.analyzer.batch_sessions)
        _add(totals, "ac.batch_calls", ac.batch_calls)
        _add(totals, "ac.batched_arrivals", ac.batched_arrivals)
    for dac in getattr(system, "acs", {}).values():
        _add(totals, "core.dac.rounds", dac.coordination_rounds)


def run_pass(grid: Any, seed: int, toy: bool, tracer: Any = None) -> Pass:
    """Build and run every cell of ``grid`` once, one at a time.

    An untraced pass brackets the build and every cell with
    :func:`calibration_seconds` and scales each by the reference over the
    mean of its two brackets; a traced pass keeps plain host time.
    """
    from repro.api import MetricsRegistry, Session

    from grids import is_fault_free

    clock = time.perf_counter
    record = Pass()
    calibrated = tracer is None
    bracket = calibration_seconds() if calibrated else 0.0

    def add(setup: float, run: float) -> None:
        nonlocal bracket
        scale = 1.0
        if calibrated:
            previous, bracket = bracket, calibration_seconds()
            scale = 2 * CALIBRATION_REFERENCE_S / (previous + bracket)
        record.add(setup, run, scale)

    root = tracer.enter("bench.other") if tracer is not None else None
    start = clock()
    span = tracer.enter("api.scenario") if tracer is not None else None
    cells = grid.build(seed, toy)
    if tracer is not None:
        tracer.exit(span)
    add(clock() - start, 0.0)
    for index, scenario in enumerate(cells):
        if tracer is not None:
            tracer.cell = index
        record.labels.append(scenario.effective_label)
        record.fault_free.append(is_fault_free(scenario))
        before = clock()
        try:
            session = Session(
                scenario, metrics=MetricsRegistry() if grid.metrics_registry else None
            )
            session.deploy()
            deployed = clock()
            result = session.run()
        except Exception:  # a failed cell is counted, the grid goes on
            traceback.print_exc(file=sys.stderr)
            record.results.append(None)
            continue
        done = clock()
        add(deployed - before, done - deployed)
        record.jobs += result.arrived_jobs
        record.results.append(result)
        if tracer is not None:
            _component_counts(session.system, record.totals)
    record.elapsed = clock() - start
    if tracer is not None:
        tracer.cell = -1
        tracer.exit(root)
    return record


def check_cell(
    result: Any, fault_free: bool, expected: Optional[str], observed: str
) -> Optional[str]:
    """Why the cell failed, or None.  ``expected`` is the reference digest
    (None when not applicable); ``observed`` is this cell's digest."""
    if result is None:
        return "raised"
    if result.arrived_jobs != result.released_jobs + result.rejected_jobs:
        return (
            f"conservation: arrived {result.arrived_jobs} != released "
            f"{result.released_jobs} + rejected {result.rejected_jobs}"
        )
    if fault_free and result.deadline_misses:
        return f"{result.deadline_misses} deadline misses on a fault-free cell"
    if expected is not None and observed != expected:
        return f"digest {observed[:12]} != expected {expected[:12]}"
    return None


def _fold_results(results: List[Any], totals: Dict[str, float]) -> None:
    for r in results:
        _add(totals, "cells", 1)
        _add(totals, "acceptance", r.accepted_utilization_ratio)
        _add(totals, "arrived", r.arrived_jobs)
        _add(totals, "released", r.released_jobs)
        _add(totals, "misses", r.deadline_misses)
        _add(totals, "sim.events", r.events_executed)
        _add(totals, "net.messages", r.messages_sent)
        _add(totals, "dropped", r.messages_dropped)
        _add(totals, "core.dac.timeouts", r.vote_timeouts)
        _add(totals, "core.dac.retries", r.retries_sent)
        _add(totals, "core.dac.aborts", r.transactions_aborted)
        if r.engine == "distributed":
            _add(totals, "dac.reserve_messages", r.reserve_messages)
            _add(totals, "dac.decisions", r.released_jobs + r.rejected_jobs)


def check_pass(
    record: Pass, expected: Optional[List[str]], failures: List[str], tag: str
) -> List[str]:
    """Check every cell, append failure reasons, fold the results into
    ``record.totals`` and drop them; return the digests ("" if raised)."""
    digests = [digest(r) if r is not None else "" for r in record.results]
    if expected is not None and len(expected) != len(digests):
        failures.append(f"{tag}: {len(digests)} cells, reference has {len(expected)}")
        expected = None
    for index, result in enumerate(record.results):
        reason = check_cell(
            result,
            record.fault_free[index],
            expected[index] if expected is not None else None,
            digests[index],
        )
        if reason is not None:
            failures.append(f"{tag} cell {index} {record.labels[index]}: {reason}")
    _fold_results([r for r in record.results if r is not None], record.totals)
    record.results = []
    return digests


def load_reference(workload: str) -> List[str]:
    """The committed per-cell digests of ``workload`` at the default seed,
    in the ``labels``/``digests`` shape ``result.json`` holds."""
    data = json.loads(REFERENCE.read_text())
    return list(data["workloads"].get(workload, {}).get("digests", []))


def environment(seed: int) -> Dict[str, Any]:
    from repro.env import pure_python_forced

    commit = "unknown"  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy_bulk_path": (
            importlib.util.find_spec("numpy") is not None and not pure_python_forced()
        ),
        "nproc": os.cpu_count(),
    }


def warm_up(grid: Any, reference: List[str], failures: List[str]) -> None:
    """Imports, lazy set-up and one throwaway cell before any timing.

    The cell is the first one of the default-seed grid, so its committed
    digest is checked on every run whatever ``--seed`` is.
    """
    from repro.api import MetricsRegistry, Session

    from grids import DEFAULT_SEED, is_fault_free

    cell = grid.build(DEFAULT_SEED, False)[0]
    try:
        result = Session(
            cell, metrics=MetricsRegistry() if grid.metrics_registry else None
        ).run()
        reason = check_cell(
            result, is_fault_free(cell), reference[0] if reference else "", digest(result)
        )
    except Exception:
        traceback.print_exc(file=sys.stderr)
        reason = "raised"
    if reason is not None:
        failures.append(f"warm-up cell {cell.effective_label}: {reason}")


def measure(
    grid: Any,
    seed: int,
    toy: bool,
    seconds: float,
    trace: bool,
    expected: Optional[List[str]],
    failures: List[str],
) -> Tuple[List[Pass], List[Tuple[Pass, Any]], List[str]]:
    """Run passes while the budget lasts; with ``trace``, each untraced
    pass is followed by a traced one.  Returns the untraced passes, the
    (traced pass, tracer) pairs and the first pass's digests."""
    from layer_trace import ROOT as ROOT_SPAN
    from layer_trace import UNATTRIBUTED_CALLBACKS, LayerTracer, installed

    untraced: List[Pass] = []
    traced: List[Tuple[Pass, Any]] = []
    first_digests: List[str] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        record = run_pass(grid, seed, toy)
        untraced.append(record)
        digests = check_pass(record, expected, failures, f"pass {len(untraced)}")
        if not first_digests:
            # Later passes, traced or not, must reproduce the first one.
            first_digests = digests
            expected = expected or digests
        print(
            f"# pass {len(untraced)}: wall {record.wall:.4f} s, set-up {record.setup:.4f} s, "
            f"run {record.run:.4f} s calibrated; wall {record.raw_wall:.4f} s host; "
            f"{record.jobs} jobs, {len(record.labels)} cells"
        )
        pass_seconds = record.elapsed
        if trace:
            gc.collect()
            tracer = LayerTracer()
            with installed(tracer):
                record = run_pass(grid, seed, toy, tracer)
            traced.append((record, tracer))
            tag = f"traced pass {len(traced)}"
            check_pass(record, first_digests, failures, tag)
            unattributed = tracer.self_s.get(ROOT_SPAN, 0.0)
            strays = tracer.counts.get(UNATTRIBUTED_CALLBACKS, 0)
            if (
                tracer.open_spans
                or strays
                or unattributed > SELF_TIME_TOLERANCE * record.elapsed
            ):
                failures.append(
                    f"{tag}: {unattributed:.6f} s of {record.elapsed:.6f} s in no "
                    f"program layer, {strays} callbacks of no known layer, "
                    f"{tracer.open_spans} spans open"
                )
            print(
                f"# {tag}: wall {record.elapsed:.4f} s, "
                f"{_per(unattributed, record.elapsed):.3%} in no program layer"
            )
            pass_seconds += record.elapsed
        if time.perf_counter() - start + pass_seconds > seconds:
            return untraced, traced, first_digests


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(passes: List[Pass]) -> Dict[str, float]:
    totals = passes[0].totals  # simulated results repeat in every pass
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": statistics.median(p.setup for p in passes),
        "jobs_per_s": statistics.median(_per(p.jobs, p.run) for p in passes),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accepted_utilization_ratio": _per(totals.get("acceptance", 0), totals.get("cells", 0)),
        "deadline_met_ratio": 1.0 - _per(totals.get("misses", 0), totals.get("released", 0)),
    }


def per_layer_metrics(traced: List[Tuple[Pass, Any]], untraced: List[Pass]) -> Dict[str, float]:
    first, tracer = traced[0]  # counts repeat in every traced pass
    counts: Dict[str, float] = {**tracer.counts, **tracer.peaks, **first.totals}

    def count(name: str) -> float:
        return counts.get(name, 0)

    metrics = {
        name: statistics.median(t.self_s.get(label, 0.0) for _p, t in traced)
        for name, label in SELF_TIME_LABELS.items()
    }
    wall = statistics.median(p.elapsed for p, _t in traced)
    sched = sum(v for name, v in metrics.items() if name.startswith("sched."))
    metrics.update({
        "sim.events_per_job": _per(count("sim.events"), count("arrived")),
        "sim.cancel_ratio": _per(count("sim.cancels"), count("sim.schedule_calls")),
        "net.messages_per_job": _per(count("net.messages"), count("arrived")),
        "net.dropped_ratio": _per(count("dropped"), count("net.messages")),
        "core.ac.batch_size_mean": _per(count("ac.batched_arrivals"), count("ac.batch_calls")),
        "core.dac.reserve_messages_per_decision": _per(
            count("dac.reserve_messages"), count("dac.decisions")
        ),
        "sched.test_us_mean": _per(metrics["sched.test_s"] * 1e6, count("sched.tests")),
        "sched.self_s": sched,
        "sched.share": _per(sched, wall),
        "net_dac.share": _per(metrics["net.self_s"] + metrics["core.dac.self_s"], wall),
        "trace.overhead_ratio": _per(
            statistics.median(p.raw_wall for p, _t in traced),
            statistics.median(p.raw_wall for p in untraced),
        ),
    })
    for name in PER_LAYER_UNITS:
        metrics.setdefault(name, count(name))
    return metrics


def write_out(
    out: Path,
    summary: Dict[str, Any],
    untraced: List[Pass],
    traced: List[Tuple[Pass, Any]],
) -> None:
    out.mkdir(parents=True, exist_ok=True)
    summary["labels"] = untraced[0].labels
    summary["passes"] = [
        {
            "wall_s": p.wall, "setup_s": p.setup, "run_s": p.run,
            "host_wall_s": p.raw_wall, "host_setup_s": p.raw_setup, "host_run_s": p.raw_run,
            "jobs": p.jobs,
        }
        for p in untraced
    ]
    summary["traced_passes"] = [{"wall_s": p.elapsed, "self_s": t.self_s} for p, t in traced]
    (out / "result.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    if traced:
        with open(out / "spans.csv", "w") as spans:
            spans.write("layer,cell,parent,start,end\n")
            for span in traced[0][1].spans():
                spans.write("%s,%d,%d,%.9f,%.9f\n" % span)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="simulation seed (default 2008)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny grids, for the smoke test")
    parser.add_argument("--out", type=Path, help="directory for result.json and spans.csv")
    args = parser.parse_args(argv)

    import_program()
    from grids import DEFAULT_SEED, GRIDS

    if args.workload not in GRIDS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(GRIDS)}")
    grid = GRIDS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    env = environment(seed)
    print(f"# bench_e2e {grid.name} " + " ".join(f"{k}={v}" for k, v in env.items()))
    reference = load_reference(grid.name)
    failures: List[str] = []
    warm_up(grid, reference, failures)
    # Per-cell digests are committed for the default seed at full scale
    # only; any other run checks the invariants, and every pass must
    # reproduce the first pass's digests.
    expected = reference if (seed == DEFAULT_SEED and not args.toy) else None
    untraced, traced, first_digests = measure(
        grid, seed, args.toy, args.seconds, bool(args.trace), expected, failures
    )

    if args.trace:
        metrics, units = per_layer_metrics(traced, untraced), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end_metrics(untraced), END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name:42s} {metrics[name]:>16.6g} {unit}")
    digest_check = "reference" if expected is not None else "not applicable"
    print(f"# digest check: {digest_check}; {len(untraced)} untraced, {len(traced)} traced passes")
    for reason in failures:
        print(f"# FAILED {reason}")
    line = {
        "correct": not failures,
        "attempted": 1 + sum(len(p.labels) for p in untraced) + sum(len(p.labels) for p, _t in traced),
        "failed": len(failures),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    if args.out is not None:
        summary = {
            "workload": grid.name,
            "environment": env,
            "seconds": args.seconds,
            "trace": args.trace,
            "toy": args.toy,
            "digest_check": digest_check,
            "digests": first_digests,
            "failures": failures,
            "result": line,
        }
        write_out(args.out, summary, untraced, traced)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
