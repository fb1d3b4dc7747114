"""RL010: values flowing into ``run_cells`` payloads must be picklable.

RL006 catches the syntactic cases — a lambda or nested-function *name*
written directly into the call.  This rule follows the data flow the
project index resolves: a payload function bound to a lambda through a
local variable (or through a from-import of a module-level lambda in
another module), and unpicklable objects — open file handles, locks,
module-level singleton handles — reaching the cell tuples through local
or module-level assignments.  All of these pickle fine in the serial
fallback and break (or silently change behavior) the moment the pool
spins up, which is exactly the failure mode a lint must catch before the
cluster executor ships.

The rule deliberately reports nothing RL006 already reports: raw lambdas
in the argument list stay RL006's finding.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple, Union

from repro_lint.engine import Finding, Rule
from repro_lint.project import DispatchSite, ModuleInfo, ProjectIndex
from repro_lint.rules import register

#: Synchronization-primitive factories that produce unpicklable objects.
_SYNC_MODULES = ("threading", "multiprocessing", "_thread")
_SYNC_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
    "allocate_lock",
}

_AssignMap = Dict[str, ast.expr]


@register
class PickleSafetyRule(Rule):
    rule_id = "RL010"
    summary = "no unpicklable values flowing into run_cells payloads"
    rationale = (
        "payloads cross process boundaries; locks, open handles, and "
        "lambda-bound names resolved through assignments pickle only in "
        "the serial fallback and break the parallel path"
    )

    def check_index(self, index: ProjectIndex) -> Iterator[Finding]:
        for site in index.dispatch_sites:
            if not self.applies_to(site.path):
                continue
            yield from self._check_site(site, index)

    # ------------------------------------------------------------------
    def _check_site(
        self, site: DispatchSite, index: ProjectIndex
    ) -> Iterator[Finding]:
        mod = index.modules[site.module]
        local_assigns = _assignments(site.enclosing) if site.enclosing else {}
        module_assigns = _assignments(mod.tree)
        call = site.call
        # The payload function: a Name bound to a lambda locally, at
        # module level, or (cross-module) behind a from-import.
        if call.args and isinstance(call.args[0], ast.Name):
            fn_name = call.args[0].id
            bound = _resolve_name(
                fn_name, local_assigns, module_assigns, mod, index
            )
            if bound is not None and isinstance(bound[0], ast.Lambda):
                where = "" if bound[1] is mod else f" in {bound[1].module}"
                yield self._finding(
                    call.args[0],
                    site.path,
                    f"payload function {fn_name!r} is bound to a "
                    f"lambda{where} and cannot be pickled for the worker "
                    "pool; use a module-level def",
                )
        # Everything else in the call crosses the pool boundary.
        arguments = list(call.args[1:]) + [kw.value for kw in call.keywords]
        for arg in arguments:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Call):
                    reason = _unpicklable_factory(sub, mod)
                    if reason is not None:
                        yield self._finding(
                            sub,
                            site.path,
                            f"{reason} created inline in a run_cells "
                            "payload cannot be pickled for the worker "
                            "pool; open/create it inside the cell "
                            "function instead",
                        )
                elif isinstance(sub, ast.Name) and isinstance(
                    sub.ctx, ast.Load
                ):
                    bound = _resolve_name(
                        sub.id, local_assigns, module_assigns, mod, index
                    )
                    if bound is None:
                        continue
                    value, owner = bound
                    reason = self._value_reason(value, owner)
                    if reason is not None:
                        scope = (
                            "a module-level singleton holding "
                            if sub.id in _names(module_assigns)
                            and sub.id not in local_assigns
                            else ""
                        )
                        yield self._finding(
                            sub,
                            site.path,
                            f"{sub.id!r} resolves to {scope}{reason} and "
                            "cannot be pickled into a run_cells payload",
                        )

    @staticmethod
    def _value_reason(
        value: ast.expr, owner: ModuleInfo
    ) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.GeneratorExp):
            return "a generator"
        if isinstance(value, ast.Call):
            return _unpicklable_factory(value, owner)
        return None

    def _finding(self, node: ast.AST, path: str, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


def _names(assigns: _AssignMap) -> Set[str]:
    return set(assigns)


def _assignments(
    scope: Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]
) -> _AssignMap:
    """Last direct ``name = expr`` binding per name in ``scope``'s body
    (nested function/class bodies are separate scopes and are skipped)."""
    assigns: _AssignMap = {}
    for stmt in _own_statements(scope):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    assigns[target.id] = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                assigns[stmt.target.id] = stmt.value
    return assigns


def _own_statements(
    scope: Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]
) -> Iterator[ast.stmt]:
    """Statements in ``scope``, descending into control flow but not into
    nested function/class scopes."""
    pending = list(scope.body)
    while pending:
        stmt = pending.pop()
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield stmt
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                pending.append(child)
            elif hasattr(child, "body"):
                body = getattr(child, "body")
                if isinstance(body, list):
                    pending.extend(
                        s for s in body if isinstance(s, ast.stmt)
                    )


def _resolve_name(
    name: str,
    local_assigns: _AssignMap,
    module_assigns: _AssignMap,
    mod: ModuleInfo,
    index: ProjectIndex,
) -> Optional[Tuple[ast.expr, ModuleInfo]]:
    """The expression ``name`` is bound to, with the module owning it.

    Resolution order mirrors Python's: enclosing-function locals, then
    the dispatching module's top level, then a from-imported module-level
    binding in another indexed module.  Returns ``(expr, owner_module)``
    or None when nothing statically resolvable binds the name.
    """
    value = local_assigns.get(name)
    if value is not None:
        return (value, mod)
    value = module_assigns.get(name)
    if value is not None:
        return (value, mod)
    dotted = mod.from_imports.get(name)
    if dotted is not None:
        target_mod_name, _, attr = dotted.rpartition(".")
        target_mod = index.modules.get(target_mod_name)
        if target_mod is not None:
            remote = _assignments(target_mod.tree).get(attr)
            if remote is not None:
                return (remote, target_mod)
    return None


def _unpicklable_factory(call: ast.Call, mod: ModuleInfo) -> Optional[str]:
    """Why ``call`` produces an unpicklable object, or None."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "open" and "open" not in mod.from_imports:
            return "an open file handle"
        dotted = mod.from_imports.get(func.id)
        if dotted is not None:
            owner, _, attr = dotted.rpartition(".")
            if owner in _SYNC_MODULES and attr in _SYNC_FACTORIES:
                return f"a {owner}.{attr}()"
    elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner = mod.module_imports.get(func.value.id)
        if owner in _SYNC_MODULES and func.attr in _SYNC_FACTORIES:
            return f"a {owner}.{func.attr}()"
    return None
