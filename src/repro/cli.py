"""Command-line interface: ``python -m repro <command>``.

Commands
--------
figure5 / figure6 / figure8 / table1 / ablation
    Regenerate a paper table or figure (the ablation is section 2's AUB
    vs Deferrable Server comparison) and print it; ``--json PATH``
    additionally exports the data machine-readably, ``--workers N``
    bounds the parallel fan-out (``table1`` simulates nothing and has
    no workers).
scenario export PATH --random-seed N ...
    Build a declarative :class:`repro.api.Scenario` with a generated
    workload from flags and write it as JSON.
scenario run PATH [--json OUT]
    Load a scenario JSON file, run it through a Session, print (and
    optionally export) the typed RunResult.
analyze <scenario.json>
    Offline AUB feasibility report for a scenario's workload.
configure <scenario.json> [--answers C1,C3,C2,TOL] [--scenario-out PATH]
    Run the front-end configuration engine: map characteristics to
    strategies (Table 1), print the combo and notes, then write the
    scenario with the mapped combo (or print its JSON); ``scenario run``
    runs it.
metrics <scenario.json> [--out PATH] [--json OUT]
    Run a scenario armed with the metrics registry and dump the
    Prometheus text exposition (see docs/OBSERVABILITY.md).
combos
    List the 15 valid strategy combinations by label.

All experiment and run commands construct their runs through the
``repro.api`` scenario surface.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, List, NoReturn, Optional

from repro.api import (
    Burst,
    Disturbance,
    Scenario,
    Session,
    Slowdown,
    WorkloadSource,
)
from repro.config.characteristics import ApplicationCharacteristics
from repro.config.engine import ConfigurationEngine
from repro.core.strategies import valid_combinations
from repro.errors import ReproError
from repro.experiments import (
    run_aub_vs_deferrable,
    run_figure5,
    run_figure6,
    run_figure8,
    run_table1,
)
from repro.experiments.table1 import format_rows, rows_to_json
from repro.sched.offline import analyze_workload, format_report


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # one line, no usage text
        self.exit(2, f"{self.prog}: error: {message}\n")


def _positive_int(raw: str) -> int:
    if not raw.isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return int(raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Reconfigurable real-time middleware reproduction "
        "(Zhang, Gill & Lu, WUCSE-2008-5).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _experiment_parser(name: str, doc: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--workers", type=int, default=None,
                       help="parallel worker processes (default: all cores)")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="also write the result data as JSON")
        return p

    for name, doc in (
        ("figure5", "random workloads, 15 combos (paper section 7.1)"),
        ("figure6", "imbalanced workloads, LB comparison (section 7.2)"),
    ):
        p = _experiment_parser(name, doc)
        p.add_argument("--sets", type=_positive_int, default=10)
        p.add_argument("--duration", type=float, default=60.0)
        p.add_argument("--seed", type=int, default=2008)

    p8 = _experiment_parser("figure8", "service overhead table (section 7.3)")
    p8.add_argument("--duration", type=float, default=300.0)
    p8.add_argument("--seed", type=int, default=2008)

    pt = sub.add_parser("table1", help="criteria-to-strategy mapping")
    pt.add_argument("--json", metavar="PATH", default=None,
                    help="also write the result data as JSON")

    pa = _experiment_parser("ablation", "AUB vs Deferrable Server admission")
    pa.add_argument("--sets", type=_positive_int, default=10)
    pa.add_argument("--duration", type=float, default=120.0)
    pa.add_argument("--seed", type=int, default=2008)

    # -- declarative scenario surface ----------------------------------
    pscen = sub.add_parser(
        "scenario", help="export/run declarative scenario JSON files"
    )
    scen_sub = pscen.add_subparsers(dest="scenario_command", required=True)

    pse = scen_sub.add_parser("export", help="write a scenario JSON file")
    pse.add_argument("path", help="output JSON path ('-' for stdout)")
    pse.add_argument(
        "--random-seed", type=int, required=True,
        help="generate the workload (section 7.1 recipe) from this seed",
    )
    pse.add_argument("--imbalanced", action="store_true",
                     help="use the section 7.2 imbalanced generator")
    pse.add_argument("--combo", default=None,
                     help="strategy combo name (default: T_T_T, or J_N_N "
                          "with --distributed)")
    pse.add_argument("--duration", type=float, default=60.0)
    pse.add_argument("--seed", type=int, default=0)
    pse.add_argument("--factor", type=float, default=2.0,
                     help="aperiodic interarrival factor")
    pse.add_argument("--distributed", action="store_true",
                     help="target the distributed-AC engine")
    pse.add_argument("--burst", metavar="TIME:JOBS", default=None,
                     help="inject an aperiodic burst disturbance")
    pse.add_argument("--slowdown", metavar="TIME:FACTOR", default=None,
                     help="inject a processor slowdown disturbance")
    pse.add_argument("--label", default=None)

    psr = scen_sub.add_parser("run", help="run a scenario JSON file")
    psr.add_argument("path", help="scenario JSON path")
    psr.add_argument("--json", metavar="PATH", default=None,
                     help="write the RunResult as JSON")

    pan = sub.add_parser("analyze", help="offline AUB feasibility report")
    pan.add_argument("path", help="scenario JSON path")

    pc = sub.add_parser("configure", help="front-end configuration engine")
    pc.add_argument("path", help="scenario JSON path")
    pc.add_argument(
        "--answers",
        help="comma-separated answers: job_skipping,replicated,"
        "state_persistence,tolerance (e.g. N,Y,Y,PT)",
    )
    pc.add_argument("--scenario-out",
                    help="write the configured run as scenario JSON here")

    pm = sub.add_parser(
        "metrics",
        help="run a scenario armed with the metrics registry and dump "
             "the Prometheus text exposition",
    )
    pm.add_argument("path", help="scenario JSON path")
    pm.add_argument("--out", metavar="PATH", default=None,
                    help="write the exposition here instead of stdout")
    pm.add_argument("--json", metavar="PATH", default=None,
                    help="also write the armed RunResult as JSON")

    sub.add_parser("combos", help="list the 15 valid strategy combinations")
    return parser


def _parse_answers(raw: Optional[str]) -> Optional[ApplicationCharacteristics]:
    if raw is None:
        return None
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 4:
        raise ReproError(
            "--answers needs 4 comma-separated values: "
            "job_skipping,replicated,state_persistence,tolerance"
        )
    return ApplicationCharacteristics.from_answers(
        {
            "job_skipping": parts[0],
            "replicated_components": parts[1],
            "state_persistence": parts[2],
            "overhead_tolerance": parts[3],
        }
    )


def _write_json(path: Optional[str], payload: Any) -> None:
    if path is None:
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print(f"JSON written to {path}")


def _parse_pair(raw: str, flag: str, int_value: bool = False) -> tuple:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ReproError(f"{flag} expects TIME:VALUE, got {raw!r}")
    try:
        return float(parts[0]), (int(parts[1]) if int_value else float(parts[1]))
    except ValueError:
        raise ReproError(f"{flag} expects numeric TIME:VALUE, got {raw!r}") from None


def _scenario_export(args) -> None:
    generate = WorkloadSource.imbalanced if args.imbalanced else WorkloadSource.random
    source = generate(seed=args.random_seed)
    disturbances: List[Disturbance] = []
    if args.burst is not None:
        time, jobs = _parse_pair(args.burst, "--burst", int_value=True)
        disturbances.append(Burst(time=time, jobs=jobs))
    if args.slowdown is not None:
        time, factor = _parse_pair(args.slowdown, "--slowdown")
        disturbances.append(Slowdown(time=time, factor=factor))
    default_combo = "J_N_N" if args.distributed else "default"
    scenario = Scenario(
        workload=source,
        combo=args.combo if args.combo is not None else default_combo,
        duration=args.duration,
        seed=args.seed,
        engine="distributed" if args.distributed else "middleware",
        aperiodic_interarrival_factor=args.factor,
        disturbances=tuple(disturbances),
        label=args.label,
    )
    if args.path == "-":
        print(scenario.to_json_str())
    else:
        scenario.save(args.path)
        print(f"scenario written to {args.path}")


def _scenario_run(args) -> None:
    scenario = Scenario.load(args.path)
    print(f"scenario: {scenario.effective_label} "
          f"(engine={scenario.engine}, duration={scenario.duration:.0f}s)")
    result = Session(scenario).run()
    for key, value in result.summary().items():
        print(f"{key}: {value}")
    print(f"accepted_utilization_ratio: {result.accepted_utilization_ratio:.4f}")
    _write_json(args.json, result.to_json())


def _configure(args) -> None:
    characteristics = _parse_answers(args.answers)
    scenario = Scenario.load(args.path)
    result = ConfigurationEngine().configure(
        scenario.workload.materialize(), characteristics
    )
    # Re-validated: a distributed scenario refuses any combo but J_N_N.
    configured = scenario.with_changes(combo=result.combo.label)
    print(f"strategy combination: {result.combo.label}")
    for note in result.notes:
        print(f"note: {note}")
    if args.scenario_out:
        configured.save(args.scenario_out)
        print(f"scenario written to {args.scenario_out}")
    else:
        print(configured.to_json_str())


def _metrics_run(args) -> None:
    from repro.api import MetricsRegistry

    scenario = Scenario.load(args.path)
    registry = MetricsRegistry()
    result = Session(scenario, metrics=registry).run()
    exposition = registry.expose()
    if args.out is None:
        sys.stdout.write(exposition)
    else:
        with open(args.out, "w") as handle:
            handle.write(exposition)
        print(f"exposition written to {args.out}")
    _write_json(args.json, result.to_json())


def _run_command(args: argparse.Namespace) -> None:
    command = args.command

    if command == "figure5":
        result = run_figure5(
            n_sets=args.sets, duration=args.duration, seed=args.seed,
            n_workers=args.workers,
        )
        print(result.format())
        print(f"IR-strategy means: {result.by_ir_strategy()}")
        _write_json(args.json, result.to_json())
    elif command == "figure6":
        result = run_figure6(
            n_sets=args.sets, duration=args.duration, seed=args.seed,
            n_workers=args.workers,
        )
        print(result.format())
        print(f"LB-strategy means: {result.lb_means()}")
        _write_json(args.json, result.to_json())
    elif command == "figure8":
        result = run_figure8(
            duration=args.duration, seed=args.seed, n_workers=args.workers
        )
        print(result.format())
        _write_json(args.json, result.to_json())
    elif command == "table1":
        rows = run_table1()
        print(format_rows(rows))
        _write_json(
            args.json, {"experiment": "table1", "rows": rows_to_json(rows)}
        )
    elif command == "ablation":
        result = run_aub_vs_deferrable(
            n_sets=args.sets, duration=args.duration, seed=args.seed,
            n_workers=args.workers,
        )
        print(result.format())
        _write_json(args.json, result.to_json())
    elif command == "scenario":
        if args.scenario_command == "export":
            _scenario_export(args)
        else:
            _scenario_run(args)
    elif command == "analyze":
        workload = Scenario.load(args.path).workload.materialize()
        print(format_report(analyze_workload(workload)))
    elif command == "configure":
        _configure(args)
    elif command == "metrics":
        _metrics_run(args)
    elif command == "combos":
        for combo in valid_combinations():
            print(combo.label)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _run_command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output early (``repro ... | head``):
        # nothing to report.  Point the descriptor at devnull so the
        # interpreter's final flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ReproError, OSError) as exc:  # bad input, unreadable file
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
