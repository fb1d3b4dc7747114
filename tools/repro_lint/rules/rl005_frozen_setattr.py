"""RL005: no ``object.__setattr__`` on frozen instances from outside.

Frozen dataclasses (``Scenario``, ``TaskSpec``, the workload
specs ...) are this repo's immutability contract: once built they are
safe to share across processes and hash into caches.  The canonical
escape hatch — ``object.__setattr__(self, ...)`` inside the defining
class's own ``__post_init__``/methods — is fine; reaching into someone
else's frozen instance from the outside mutates state every cache and
parity assumption says cannot change.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.engine import Context, Finding, Rule
from repro_lint.rules import register


@register
class FrozenSetattrRule(Rule):
    rule_id = "RL005"
    summary = "object.__setattr__ only on self inside the defining class"
    rationale = (
        "frozen dataclasses are shared and cached on the promise they "
        "never change; outside mutation invalidates caches and parity"
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: Context) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            return
        if self._is_self_in_method(node, ctx):
            return
        target = self.excerpt(node.args[0]) if node.args else "<no target>"
        yield Finding(
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset,
            rule_id=self.rule_id,
            message=(
                f"object.__setattr__ on {target} outside the defining "
                "class mutates a frozen instance; move the write into the "
                "owning class or build a new instance"
            ),
        )

    @staticmethod
    def _is_self_in_method(node: ast.Call, ctx: Context) -> bool:
        """True for ``object.__setattr__(self, ...)`` inside a method of
        the enclosing class (the frozen-dataclass escape hatch)."""
        if ctx.enclosing_class() is None:
            return False
        function = ctx.enclosing_function()
        if function is None:
            return False
        args = function.args.posonlyargs + function.args.args
        if not args:
            return False
        first = args[0].arg
        return bool(
            node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == first
        )
