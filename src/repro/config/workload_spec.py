"""Workload specification files.

The paper's developer "first provides a workload specification file which
describes each end-to-end task and where its subtasks execute".  Two
formats are supported:

**JSON** (canonical, round-trippable)::

    {
      "manager": "task_manager",
      "processors": ["app1", "app2"],
      "tasks": [
        {
          "id": "P1", "kind": "periodic",
          "deadline": 1.0, "period": 1.0, "phase": 0.0,
          "subtasks": [
            {"execution_time": 0.05, "processor": "app1",
             "replicas": ["app2"]}
          ]
        }
      ]
    }

**Text** (human-authorable, line based)::

    processors app1 app2
    manager task_manager
    task P1 periodic deadline=1.0 period=1.0
      subtask exec=0.05 on=app1 replicas=app2
    task A1 aperiodic deadline=0.5
      subtask exec=0.02 on=app2

Comments (``#``) and blank lines are ignored in the text format.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import TaskModelError, WorkloadSpecError
from repro.json_checks import json_field, json_list
from repro.sched.task import SubtaskSpec, TaskKind, TaskSpec
from repro.workloads.model import DEFAULT_MANAGER_NODE, Workload


# ----------------------------------------------------------------------
# JSON format
# ----------------------------------------------------------------------
def workload_to_json(workload: Workload, indent: Optional[int] = 2) -> str:
    """Serialize ``workload`` to the canonical JSON format."""
    doc: Dict[str, Any] = {
        "manager": workload.manager_node,
        "processors": list(workload.app_nodes),
        "tasks": [],
    }
    for task in workload.tasks:
        entry: Dict[str, Any] = {
            "id": task.task_id,
            "kind": task.kind.value,
            "deadline": task.deadline,
            "phase": task.phase,
            "subtasks": [
                {
                    "execution_time": s.execution_time,
                    "processor": s.home,
                    "replicas": list(s.replicas),
                }
                for s in task.subtasks
            ],
        }
        if task.period is not None:
            entry["period"] = task.period
        doc["tasks"].append(entry)
    return json.dumps(doc, indent=indent)


def parse_workload_json(text: str) -> Workload:
    """Parse the canonical JSON workload format; raises WorkloadSpecError
    on any malformed input."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkloadSpecError(f"invalid JSON workload spec: {exc}") from None
    what = "workload spec"
    try:
        processors = json_list(doc, "processors", str, what)
        manager = (
            json_field(doc, "manager", str, what)
            if "manager" in doc
            else DEFAULT_MANAGER_NODE
        )
        tasks = tuple(
            _task_from_dict(raw) for raw in json_list(doc, "tasks", dict, what)
        )
    except (ValueError, OverflowError, TaskModelError) as exc:
        raise WorkloadSpecError(f"invalid workload spec: {exc}") from None
    return Workload(tasks=tasks, app_nodes=tuple(processors), manager_node=manager)


def _task_from_dict(raw: Dict[str, Any]) -> TaskSpec:
    task_id = json_field(raw, "id", str, "task entry")
    what = f"task {task_id!r}"
    subtasks = []
    for index, raw_sub in enumerate(json_list(raw, "subtasks", dict, what)):
        where = f"{what} subtask {index}"
        subtasks.append(
            SubtaskSpec(
                index=index,
                execution_time=_json_number(raw_sub, "execution_time", where),
                home=json_field(raw_sub, "processor", str, where),
                replicas=tuple(
                    json_list(raw_sub, "replicas", str, where)
                    if "replicas" in raw_sub
                    else ()
                ),
            )
        )
    return TaskSpec(
        task_id=task_id,
        kind=TaskKind(json_field(raw, "kind", str, what).lower()),
        deadline=_json_number(raw, "deadline", what),
        subtasks=tuple(subtasks),
        period=(
            _json_number(raw, "period", what)
            if raw.get("period") is not None
            else None
        ),
        phase=_json_number(raw, "phase", what) if "phase" in raw else 0.0,
    )


def _json_number(raw: Dict[str, Any], key: str, what: str) -> float:
    return _finite(json_field(raw, key, (int, float), what), f"{what} {key!r}")


def _finite(value: Any, what: str) -> float:
    """``value`` as a float; raises ValueError unless it is a finite number."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {number}")
    return number


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------
def parse_workload_text(text: str) -> Workload:
    """Parse the line-based text workload format."""
    processors: List[str] = []
    manager = DEFAULT_MANAGER_NODE
    tasks: List[TaskSpec] = []
    current: Optional[Dict[str, Any]] = None

    def finish_current() -> None:
        nonlocal current
        if current is None:
            return
        if not current["subtasks"]:
            raise WorkloadSpecError(
                f"task {current['id']} has no subtask lines"
            )
        try:
            tasks.append(
                TaskSpec(
                    task_id=current["id"],
                    kind=current["kind"],
                    deadline=current["deadline"],
                    subtasks=tuple(current["subtasks"]),
                    period=current["period"],
                    phase=current["phase"],
                )
            )
        except TaskModelError as exc:
            raise WorkloadSpecError(str(exc)) from None
        current = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0].lower()
        if keyword == "processors":
            processors.extend(fields[1:])
        elif keyword == "manager":
            if len(fields) != 2:
                raise WorkloadSpecError(f"line {lineno}: manager takes one name")
            manager = fields[1]
        elif keyword == "task":
            finish_current()
            current = _parse_task_line(fields, lineno)
        elif keyword == "subtask":
            if current is None:
                raise WorkloadSpecError(
                    f"line {lineno}: subtask before any task line"
                )
            current["subtasks"].append(
                _parse_subtask_line(fields, len(current["subtasks"]), lineno)
            )
        else:
            raise WorkloadSpecError(
                f"line {lineno}: unknown keyword {keyword!r}"
            )
    finish_current()
    if not processors:
        raise WorkloadSpecError("spec declares no processors")
    return Workload(
        tasks=tuple(tasks), app_nodes=tuple(processors), manager_node=manager
    )


def _kv_fields(fields: List[str], lineno: int) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for field in fields:
        if "=" not in field:
            raise WorkloadSpecError(
                f"line {lineno}: expected key=value, got {field!r}"
            )
        key, value = field.split("=", 1)
        out[key.lower()] = value
    return out


def _parse_task_line(fields: List[str], lineno: int) -> Dict[str, Any]:
    if len(fields) < 3:
        raise WorkloadSpecError(
            f"line {lineno}: task line needs 'task <id> <kind> key=value...'"
        )
    task_id = fields[1]
    try:
        kind = TaskKind(fields[2].lower())
    except ValueError:
        raise WorkloadSpecError(
            f"line {lineno}: task kind must be periodic or aperiodic, "
            f"got {fields[2]!r}"
        ) from None
    kv = _kv_fields(fields[3:], lineno)
    if "deadline" not in kv:
        raise WorkloadSpecError(f"line {lineno}: task needs deadline=")
    return {
        "id": task_id,
        "kind": kind,
        "deadline": _spec_number(kv, "deadline", lineno),
        "period": _spec_number(kv, "period", lineno) if "period" in kv else None,
        "phase": _spec_number(kv, "phase", lineno) if "phase" in kv else 0.0,
        "subtasks": [],
    }


def _parse_subtask_line(
    fields: List[str], index: int, lineno: int
) -> SubtaskSpec:
    kv = _kv_fields(fields[1:], lineno)
    if "exec" not in kv or "on" not in kv:
        raise WorkloadSpecError(
            f"line {lineno}: subtask needs exec= and on="
        )
    replicas = tuple(
        r for r in kv.get("replicas", "").split(",") if r
    )
    try:
        return SubtaskSpec(
            index=index,
            execution_time=_spec_number(kv, "exec", lineno),
            home=kv["on"],
            replicas=replicas,
        )
    except TaskModelError as exc:
        raise WorkloadSpecError(f"line {lineno}: {exc}") from None


def _spec_number(kv: Dict[str, str], key: str, lineno: int) -> float:
    try:
        return _finite(kv[key], f"{key}=")
    except ValueError:
        raise WorkloadSpecError(
            f"line {lineno}: {key}= needs a finite number, got {kv[key]!r}"
        ) from None


# ----------------------------------------------------------------------
# File loading
# ----------------------------------------------------------------------
def load_workload(path: Union[str, Path]) -> Workload:
    """Load a workload spec, dispatching on file extension.

    ``.json`` files use the JSON format; anything else uses the text
    format.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        return parse_workload_json(text)
    return parse_workload_text(text)
