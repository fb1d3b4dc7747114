"""Front-end configuration engine.

Paper sections 4 and 6: application developers describe their CPS through
the four questionnaire answers (:mod:`repro.config.characteristics`); the
engine maps them to service strategies per Table 1
(:mod:`repro.config.mapping`), adds load-balancing and feasibility notes,
and emits the configured run as a :class:`repro.api.Scenario`, which a
:class:`repro.api.Session` deploys (:mod:`repro.config.engine`).
"""

from repro.config.characteristics import (
    ApplicationCharacteristics,
    OverheadTolerance,
)
from repro.config.engine import ConfigurationEngine, EngineResult
from repro.config.mapping import map_characteristics

__all__ = [
    "ApplicationCharacteristics",
    "OverheadTolerance",
    "ConfigurationEngine",
    "EngineResult",
    "map_characteristics",
]
