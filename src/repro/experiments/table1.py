"""Table 1: criteria and middleware strategies.

Demonstrates the configuration engine's mapping on the application
categories the paper discusses:

* critical control (no job skipping — e.g. fail-safe shutdown chains),
* integral/PID control (stateful, not re-allocatable per job),
* proportional control (stateless, freely re-allocatable),
* video streaming / loss-tolerant sensing (job skipping fine),
* fixed-sensor pipelines (no replication possible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.config.characteristics import (
    ApplicationCharacteristics,
    OverheadTolerance,
)
from repro.config.mapping import map_characteristics
from repro.experiments.report import format_table


@dataclass(frozen=True)
class Table1Row:
    """One application category with its mapped strategy combination."""

    category: str
    characteristics: ApplicationCharacteristics
    combo_label: str
    notes: Tuple[str, ...]


#: The example application categories (name, C1, C3, C2, tolerance).
CATEGORIES = (
    ("critical control (fail-safe chain)", False, True, True, OverheadTolerance.PER_TASK),
    ("integral/PID control, replicated", True, True, True, OverheadTolerance.PER_TASK),
    ("proportional control, replicated", True, True, False, OverheadTolerance.PER_JOB),
    ("video streaming / loss-tolerant sensing", True, True, False, OverheadTolerance.PER_JOB),
    ("fixed-sensor pipeline (no replicas)", True, False, False, OverheadTolerance.PER_TASK),
    ("critical + per-job resetting requested", False, True, False, OverheadTolerance.PER_JOB),
)


def run_table1() -> List[Table1Row]:
    """Map every example category through Table 1, in row order."""
    rows = []
    for name, skipping, replicated, stateful, tolerance in CATEGORIES:
        chars = ApplicationCharacteristics(
            job_skipping=skipping,
            replicated_components=replicated,
            state_persistence=stateful,
            overhead_tolerance=tolerance,
        )
        combo, notes = map_characteristics(chars)
        rows.append(
            Table1Row(
                category=name,
                characteristics=chars,
                combo_label=combo.label,
                notes=tuple(notes),
            )
        )
    return rows


def rows_to_json(rows: List[Table1Row]) -> List[dict]:
    """Machine-readable Table 1 rows (for the CLI ``--json`` export)."""
    return [
        {
            "category": r.category,
            "job_skipping": r.characteristics.job_skipping,
            "replicated_components": r.characteristics.replicated_components,
            "state_persistence": r.characteristics.state_persistence,
            "overhead_tolerance": r.characteristics.overhead_tolerance.value,
            "combo": r.combo_label,
            "notes": list(r.notes),
        }
        for r in rows
    ]


def format_rows(rows: List[Table1Row]) -> str:
    return format_table(
        ["application category", "C1", "C3", "C2", "tol", "combo"],
        [
            [
                r.category,
                "Y" if r.characteristics.job_skipping else "N",
                "Y" if r.characteristics.replicated_components else "N",
                "Y" if r.characteristics.state_persistence else "N",
                r.characteristics.overhead_tolerance.value,
                r.combo_label,
            ]
            for r in rows
        ],
        title="Table 1 — Criteria and middleware strategies",
    )
