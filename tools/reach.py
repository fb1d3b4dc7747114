"""Function-level reach of the paper artifacts and the end-to-end workloads.

Usage (from the repository root)::

    python3 tools/reach.py

Runs the paper artifacts through the CLI (``figure5``, ``figure6``,
``figure8`` and ``table1`` at 1 set and 10 s, one worker) and the three
``bench_e2e`` workloads at full scale (every cell deployed, run and
digested as one ``bench_e2e/run.py`` pass does) under ``sys.setprofile``,
then prints, for each module of ``src/repro``, every function that was
never called with its line span, and the totals.

A function is every ``def`` (methods and nested functions included); one
is reached when any call entered it.  Unreached lines are the source
lines of unreached functions, counting a nested function inside an
unreached one only once; total lines are the modules' physical lines.
Everything runs in this process: worker processes would escape the
profile.  About 20 s on a 2-vCPU VM with Python 3.11.  Standard library
only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import FrameType
from typing import Any, Callable, Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


@dataclass(frozen=True)
class Function:
    """One ``def`` of a module: dotted name and source line span."""

    name: str
    first: int  # first line, its first decorator included
    last: int


@dataclass
class ModuleReach:
    """The functions of one module and those no call entered."""

    path: Path
    lines: int
    functions: List[Function]
    unreached: List[Function] = field(default_factory=list)

    @property
    def unreached_lines(self) -> int:
        """Lines of the unreached functions, each line counted once."""
        covered: Set[int] = set()
        for function in self.unreached:
            covered.update(range(function.first, function.last + 1))
        return len(covered)


def functions_of(source: str) -> List[Function]:
    """Every function defined in ``source``, in source order."""
    found: List[Function] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append(Function(name, first, child.end_lineno or first))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def measure(package: Path, run: Callable[[], None]) -> List[ModuleReach]:
    """Run ``run`` under ``sys.setprofile``; the reach of every module
    under ``package``, in path order."""
    codes: Dict[int, Any] = {}

    def record(frame: FrameType, event: str, arg: Any) -> None:
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        run()
    finally:
        sys.setprofile(previous)
    entered = {
        (os.path.realpath(code.co_filename), code.co_firstlineno)
        for code in codes.values()
    }
    modules = []
    for path in sorted(package.rglob("*.py")):
        source = path.read_text()
        functions = functions_of(source)
        key = os.path.realpath(path)
        modules.append(ModuleReach(
            path=path,
            lines=len(source.splitlines()),
            functions=functions,
            unreached=[f for f in functions if (key, f.first) not in entered],
        ))
    return modules


def totals(modules: List[ModuleReach]) -> Tuple[int, int, int, int]:
    """(unreached functions, functions, unreached lines, lines)."""
    return (
        sum(len(m.unreached) for m in modules),
        sum(len(m.functions) for m in modules),
        sum(m.unreached_lines for m in modules),
        sum(m.lines for m in modules),
    )


def format_report(modules: List[ModuleReach], base: Path) -> str:
    out = []
    for module in modules:
        if not module.unreached:
            continue
        out.append(
            f"{module.path.relative_to(base)}: {len(module.unreached)} of "
            f"{len(module.functions)} functions, {module.unreached_lines} of "
            f"{module.lines} lines unreached"
        )
        for function in module.unreached:
            out.append(
                f"  {function.name}  lines {function.first}-{function.last}"
            )
    functions_out, functions_all, lines_out, lines_all = totals(modules)
    out.append(
        f"total: {functions_out} of {functions_all} functions and "
        f"{lines_out} of {lines_all} lines never reached"
    )
    return "\n".join(out)


def run_artifacts_and_workloads() -> None:
    """The paper artifacts through the CLI, then the three e2e grids."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench_e2e"))
    from grids import DEFAULT_SEED, GRIDS  # bench_e2e/grids.py

    from repro.api import MetricsRegistry, Session
    from repro.cli import main as cli

    quick = ["--duration", "10", "--workers", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        cli(["figure5", "--sets", "1"] + quick)
        cli(["figure6", "--sets", "1"] + quick)
        cli(["figure8"] + quick)
        cli(["table1", "--workers", "1"])
    for grid in GRIDS.values():
        for cell in grid.build(DEFAULT_SEED, False):
            session = Session(
                cell, metrics=MetricsRegistry() if grid.metrics_registry else None
            )
            session.deploy()
            session.run().to_json_str()


def main() -> int:
    print(format_report(measure(PACKAGE, run_artifacts_and_workloads), ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
