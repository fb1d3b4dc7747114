"""Exception hierarchy for the ``repro`` middleware library.

Every error raised by the library derives from :class:`ReproError`, so
applications can install a single ``except ReproError`` guard around
middleware calls.  Sub-hierarchies mirror the package layout: simulation
kernel errors, component-model errors, configuration/deployment errors and
scheduling errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class SchedulingError(ReproError):
    """Errors raised by the scheduling/analysis layer."""


class TaskModelError(SchedulingError):
    """An end-to-end task or subtask specification is malformed."""


class ComponentError(ReproError):
    """Errors raised by the CCM-lite component model."""


class PortError(ComponentError):
    """A port connection or lookup failed."""


class AttributeConfigError(ComponentError):
    """A component attribute was configured with an invalid value."""


class ConfigurationError(ReproError):
    """Errors raised by the front-end configuration engine."""


class InvalidStrategyCombination(ConfigurationError):
    """A combination of AC/IR/LB strategies is not valid (paper section 4.5).

    The canonical example is admission control *per task* combined with idle
    resetting *per job*: per-job resetting removes the synthetic-utilization
    contributions of completed periodic subjobs, but per-task admission
    control requires those contributions to remain reserved for the lifetime
    of the admitted task.
    """


class WorkloadSpecError(ConfigurationError):
    """A workload, or a workload generator's parameters, is malformed."""

