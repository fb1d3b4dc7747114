"""Front-end configuration engine and plan deployment.

Paper sections 4 and 6: application developers describe their CPS through
the four questionnaire answers (:mod:`repro.config.characteristics`); the
engine maps them to service strategies per Table 1
(:mod:`repro.config.mapping`), builds an XML deployment plan
(:mod:`repro.config.plan`, :mod:`repro.config.xml_io`), refuses invalid
configurations (:mod:`repro.config.validation`) and deploys a checked
plan through the one assembler (:mod:`repro.config.dance`).
"""

from repro.config.characteristics import (
    ApplicationCharacteristics,
    OverheadTolerance,
)
from repro.config.dance import deploy_plan
from repro.config.engine import ConfigurationEngine, EngineResult
from repro.config.mapping import map_characteristics
from repro.config.plan import (
    ComponentInstance,
    Connection,
    DeploymentPlan,
    build_deployment_plan,
)
from repro.config.validation import validate_plan
from repro.config.workload_spec import (
    load_workload,
    parse_workload_json,
    parse_workload_text,
    workload_to_json,
)
from repro.config.xml_io import parse_xml, to_xml

__all__ = [
    "ApplicationCharacteristics",
    "OverheadTolerance",
    "deploy_plan",
    "ConfigurationEngine",
    "EngineResult",
    "map_characteristics",
    "ComponentInstance",
    "Connection",
    "DeploymentPlan",
    "build_deployment_plan",
    "validate_plan",
    "load_workload",
    "parse_workload_json",
    "parse_workload_text",
    "workload_to_json",
    "parse_xml",
    "to_xml",
]
