"""DAnCE-lite: deploy a checked deployment plan (paper Figure 4).

The paper's configuration engine emits an XML deployment plan, which
DAnCE then parses, installs and configures.  Here the plan is an input
checked at the boundary: :func:`deploy_plan` parses it if it is XML,
checks with :func:`~repro.config.validation.validate_plan` that it is
exactly the plan its own embedded workload and strategy combination
generate, and hands those two to
:class:`~repro.core.middleware.MiddlewareSystem`, the one assembler.  A
plan that describes anything else fails with ConfigurationError before a
component exists, so no plan deploys as something it does not say.
"""

from __future__ import annotations

from typing import Any, Union

from repro.config.plan import DeploymentPlan
from repro.config.validation import validate_plan
from repro.config.xml_io import parse_xml
from repro.core.middleware import MiddlewareSystem


def deploy_plan(plan: Union[DeploymentPlan, str], **runtime: Any) -> MiddlewareSystem:
    """Check ``plan`` (a :class:`DeploymentPlan` or its XML) and build the
    system it describes.

    ``runtime`` passes through to :class:`MiddlewareSystem` (``seed``,
    ``cost_model``, ``trace``, ``delay_model``,
    ``aperiodic_interarrival_factor``, ``arrival_batching``,
    ``metrics_registry``): the plan fixes what is deployed, not how the
    run is driven.  Raises ConfigurationError for a malformed plan.
    """
    if isinstance(plan, str):
        plan = parse_xml(plan)
    workload = validate_plan(plan)
    return MiddlewareSystem(workload, plan.combo(), **runtime)
