"""Deployment-plan checks.

The paper's configuration engine "performs a feasibility check on
configuration settings, to ensure correct handling of dependent
constraints" — most prominently refusing AC-per-Task + IR-per-Job.
:func:`validate_plan` checks a whole
:class:`~repro.config.plan.DeploymentPlan`:

* its AC's strategy triple is a valid combination;
* its embedded workload parses;
* it is exactly the plan :func:`~repro.config.plan.build_deployment_plan`
  generates for that workload and combination: the same topology, the
  same instances (id, node, implementation and typed configuration) and
  the same connections, in any order and under any label.

The last check covers every structural rule of a plan (an LB iff the AC
enables one, one TE and IR per application processor, release modes,
EDMS priorities, complete task chains), and it lets a deployer build the
system from the workload and combination alone: a plan cannot deploy as
something it does not say.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.config.plan import ComponentInstance, DeploymentPlan, build_deployment_plan
from repro.config.workload_spec import parse_workload_json
from repro.errors import ConfigurationError
from repro.workloads.model import Workload


def validate_plan(plan: DeploymentPlan) -> Workload:
    """Validate ``plan``; returns the embedded workload on success.

    Raises :class:`ConfigurationError` (or the more specific
    :class:`~repro.errors.InvalidStrategyCombination`) on any violation,
    naming the first instance or connection that is missing, extra or
    different from the generated plan.
    """
    combo = plan.combo()  # raises on a missing/duplicated AC
    combo.validate()
    if not plan.workload_json:
        raise ConfigurationError("plan has no embedded workload")
    workload = parse_workload_json(plan.workload_json)
    generated = build_deployment_plan(workload, combo)
    where = f"the plan generated for its workload and combo {combo.label}"
    if (plan.manager_node, sorted(plan.app_nodes)) != (
        generated.manager_node, sorted(generated.app_nodes)
    ):
        raise ConfigurationError(
            f"plan topology (manager {plan.manager_node!r}, nodes "
            f"{list(plan.app_nodes)}) differs from {where} (manager "
            f"{generated.manager_node!r}, nodes {list(generated.app_nodes)})"
        )
    _check_same("instance", plan.instances, generated.instances,
                lambda inst: inst.instance_id, _instance_difference, where)
    _check_same("connection", plan.connections, generated.connections,
                lambda conn: conn.name, _connection_difference, where)
    return workload


def _check_same(
    kind: str,
    given: Sequence[Any],
    generated: Sequence[Any],
    key: Callable[[Any], str],
    difference: Callable[[Any, Any], Optional[str]],
    where: str,
) -> None:
    """Raise for the first element of ``generated`` that ``given`` lacks or
    holds differently, then for the first extra element of ``given``."""
    by_key: Dict[str, Any] = {}
    for element in given:
        if key(element) in by_key:
            raise ConfigurationError(f"plan repeats {kind} {key(element)!r}")
        by_key[key(element)] = element
    for expected in generated:
        element = by_key.pop(key(expected), None)
        if element is None:
            raise ConfigurationError(
                f"plan lacks {kind} {key(expected)!r} of {where}"
            )
        problem = difference(element, expected)
        if problem is not None:
            raise ConfigurationError(
                f"{kind} {key(expected)!r} differs from {where}: {problem}"
            )
    if by_key:
        raise ConfigurationError(
            f"plan has {kind} {next(iter(by_key))!r}, which {where} lacks"
        )


_ABSENT = object()


def _typed(value: Any) -> Tuple[type, Any]:
    # 1, 1.0 and True compare equal; a plan must carry the generated type.
    return (type(value), value)


def _instance_difference(
    given: ComponentInstance, expected: ComponentInstance
) -> Optional[str]:
    for field in ("node", "implementation"):
        if getattr(given, field) != getattr(expected, field):
            return (
                f"{field} {getattr(given, field)!r}, generated "
                f"{getattr(expected, field)!r}"
            )
    props, wanted = given.property_dict(), expected.property_dict()
    for name in sorted(set(props) | set(wanted)):
        value, want = props.get(name, _ABSENT), wanted.get(name, _ABSENT)
        if _typed(value) != _typed(want):
            shown = "absent" if value is _ABSENT else repr(value)
            shown_want = "absent" if want is _ABSENT else repr(want)
            return f"property {name!r} {shown}, generated {shown_want}"
    return None


def _connection_difference(given: Any, expected: Any) -> Optional[str]:
    if given == expected:
        return None
    return f"{given}, generated {expected}"
