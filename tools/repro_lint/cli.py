"""Command-line front end: ``python -m repro_lint [paths...]``.

Exit codes:

* ``0`` — clean (no non-baselined findings)
* ``1`` — findings to fix (or to baseline with a justification)
* ``2`` — usage or internal error (bad path, unreadable baseline,
  syntax error in a scanned file)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro_lint.baseline import Baseline
from repro_lint.engine import Finding, LintEngine
from repro_lint.rules import all_rules

DEFAULT_PATHS = ("src", "tests", "examples", "tools")
DEFAULT_BASELINE = "tools/repro_lint/baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro_lint",
        description=(
            "AST-based determinism & parity lint for this repository "
            "(see docs/LINTING.md for the rule catalogue)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "rewrite the baseline to cover the current findings, keeping "
            "existing justifications (new entries get 'TODO: justify')"
        ),
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help=(
            "drop baseline entries that no longer match any finding and "
            "rewrite the baseline in place (does not add new entries)"
        ),
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root paths are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.summary}")
            print(f"       {rule.rationale}")
        return 0

    root = Path(args.root)
    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro-lint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    engine = LintEngine(rules, root)
    findings, errors = engine.lint_paths(paths)
    if errors:
        for error in errors:
            print(f"repro-lint: {error}", file=sys.stderr)
        return 2

    baseline_path = root / args.baseline
    baseline = Baseline()
    if not args.no_baseline and baseline_path.exists():
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"repro-lint: bad baseline: {exc}", file=sys.stderr)
            return 2

    if args.write_baseline:
        new_baseline = Baseline.from_findings(findings, baseline)
        new_baseline.save(baseline_path)
        print(
            f"repro-lint: wrote {len(new_baseline.entries)} baseline "
            f"entr{'y' if len(new_baseline.entries) == 1 else 'ies'} to "
            f"{baseline_path}"
        )
        return 0

    fresh, stale = baseline.split(findings)
    if args.prune_baseline:
        if stale:
            baseline.pruned(stale).save(baseline_path)
            print(
                f"repro-lint: pruned {len(stale)} stale baseline "
                f"entr{'y' if len(stale) == 1 else 'ies'} from {baseline_path}"
            )
        else:
            print("repro-lint: baseline has no stale entries")
        stale = []
    return _report(fresh, stale, len(findings), args.format)


def _report(
    fresh: List[Finding],
    stale: List[Dict[str, str]],
    total: int,
    fmt: str,
) -> int:
    if fmt == "json":
        payload = {
            "findings": [f.to_json() for f in fresh],
            "baselined": total - len(fresh),
            "stale_baseline_entries": stale,
        }
        print(json.dumps(payload, indent=2))
        return 1 if fresh or stale else 0

    for finding in fresh:
        print(finding.format_text())
    if stale:
        print(
            f"repro-lint: {len(stale)} stale baseline entr"
            f"{'y' if len(stale) == 1 else 'ies'} no longer match any "
            "finding; remove them with --prune-baseline:"
        )
        for entry in stale:
            print(f"  - {entry['rule']} {entry['path']}: {entry['message']}")
    suppressed = total - len(fresh)
    if fresh:
        print(
            f"repro-lint: {len(fresh)} finding(s) "
            f"({suppressed} baselined); fix them or baseline with a "
            "justification (--write-baseline)"
        )
        return 1
    if stale:
        return 1
    print(f"repro-lint: clean ({suppressed} baselined finding(s))")
    return 0
