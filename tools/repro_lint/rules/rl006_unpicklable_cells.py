"""RL006: experiment-cell payloads must be picklable by construction.

``run_cells`` fans cells out over a multiprocessing pool.  Lambdas and
functions defined inside another function cannot be pickled, so a cell
function (or a cell argument) built that way works in the serial
fallback and then dies — or worse, silently changes behavior — the
moment the pool actually spins up.  Cell functions must be module-level;
so must anything callable carried inside a cell tuple.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro_lint.engine import Context, Finding, Rule
from repro_lint.rules import register

#: Call targets that dispatch cells to the multiprocessing pool.
_DISPATCHERS = {"run_cells"}


@register
class UnpicklableCellRule(Rule):
    rule_id = "RL006"
    summary = "no lambdas or nested functions in run_cells arguments"
    rationale = (
        "cells cross process boundaries; lambdas/closures pickle only in "
        "the serial fallback and break the parallel path"
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: Context) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name not in _DISPATCHERS:
            return
        nested = self._nested_function_names(ctx)
        arguments = list(node.args) + [kw.value for kw in node.keywords]
        for arg in arguments:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    yield self._finding(
                        sub,
                        ctx,
                        f"lambda passed into {name}() cannot be pickled "
                        "for the worker pool; use a module-level function",
                    )
                elif isinstance(sub, ast.Name) and sub.id in nested:
                    yield self._finding(
                        sub,
                        ctx,
                        f"nested function {sub.id!r} passed into {name}() "
                        "cannot be pickled for the worker pool; move it to "
                        "module level",
                    )

    @staticmethod
    def _nested_function_names(ctx: Context) -> Set[str]:
        """Functions defined inside the enclosing function (unpicklable)."""
        enclosing = ctx.enclosing_function()
        if enclosing is None:
            return set()
        names: Set[str] = set()
        for sub in ast.walk(enclosing):
            if (
                isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and sub is not enclosing
            ):
                names.add(sub.name)
        return names

    def _finding(self, node: ast.AST, ctx: Context, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset,
            rule_id=self.rule_id,
            message=message,
        )
