"""Component base class with declared, validated attributes.

Components declare their configurable attributes as a class-level
``ATTRIBUTES`` mapping of name -> :class:`AttributeSpec`.  Deployment plans
configure attributes through the standard ``set_configuration`` interface
(the Configurator step in the paper's Figure 4); invalid names or values
raise :class:`~repro.errors.AttributeConfigError` at deployment time, which
is one half of the paper's "invalid configurations cannot be chosen by
mistake" guarantee (the other half lives in
:mod:`repro.config.validation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, TYPE_CHECKING

from repro.errors import AttributeConfigError, ComponentError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ccm.container import Container


@dataclass(frozen=True)
class AttributeSpec:
    """Declaration of one configurable component attribute.

    Attributes
    ----------
    type:
        Expected Python type; values are checked with ``isinstance`` (bool
        is rejected where int is expected, to catch config typos).
    default:
        Value used when a deployment plan does not set the attribute.
        ``required=True`` attributes have no default.
    validator:
        Optional predicate; a falsy result rejects the value.
    mutable:
        Whether the attribute may be changed after activation (the paper's
        TE attributes "may be modified at run-time").
    """

    type: type
    default: Any = None
    required: bool = False
    validator: Optional[Callable[[Any], bool]] = None
    mutable: bool = False
    doc: str = ""


class _ContainerContext:
    """A component's ``node``, ``sim``, ``processor`` or ``tracer`` before
    install.

    :meth:`Container.install` stores the container's four values as plain
    instance attributes, which shadow this non-data descriptor, so every
    read after install is an attribute lookup.  A read before install
    reaches the descriptor and raises ComponentError.  (Bound at install,
    not at the first read: CPython shares one attribute-key table among a
    class's instances and stops adding keys to it once many instances
    exist, so attributes first set after a deployment's components were
    built would give each component its own dict.)
    """

    def __get__(self, component: Any, owner: Optional[type] = None) -> Any:
        if component is None:
            return self
        raise component._not_installed()


class Component:
    """Base class for all CCM-lite components."""

    #: Subclasses override: declared configurable attributes.
    ATTRIBUTES: Dict[str, AttributeSpec] = {}
    #: Derived from ATTRIBUTES once per class (``__init_subclass__``).
    _DEFAULTS: Dict[str, Any] = {}
    _REQUIRED: FrozenSet[str] = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        specs = cls.ATTRIBUTES
        cls._DEFAULTS = {n: s.default for n, s in specs.items() if not s.required}
        cls._REQUIRED = frozenset(n for n, s in specs.items() if s.required)

    def __init__(self, name: str) -> None:
        self.name = name
        self.container: Optional["Container"] = None
        self._activated = False
        self._attributes: Dict[str, Any] = self._DEFAULTS.copy()

    # ------------------------------------------------------------------
    # Attribute machinery (configProperty / Configurator)
    # ------------------------------------------------------------------
    def set_attribute(self, name: str, value: Any) -> None:
        """Set one configurable attribute, validating name and value."""
        spec = self.ATTRIBUTES.get(name)
        if spec is None:
            raise AttributeConfigError(
                f"{type(self).__name__} {self.name!r} has no attribute {name!r}; "
                f"known attributes: {sorted(self.ATTRIBUTES)}"
            )
        if self._activated and not spec.mutable:
            raise AttributeConfigError(
                f"attribute {name!r} of {self.name!r} is immutable after activation"
            )
        if spec.type is int and isinstance(value, bool):
            raise AttributeConfigError(
                f"attribute {name!r} of {self.name!r} expects int, got bool"
            )
        if not isinstance(value, spec.type):
            raise AttributeConfigError(
                f"attribute {name!r} of {self.name!r} expects "
                f"{spec.type.__name__}, got {type(value).__name__}"
            )
        if spec.validator is not None and not spec.validator(value):
            raise AttributeConfigError(
                f"value {value!r} rejected for attribute {name!r} of {self.name!r}"
            )
        self._attributes[name] = value

    def get_attribute(self, name: str) -> Any:
        try:
            return self._attributes[name]
        except KeyError:
            if name not in self.ATTRIBUTES:
                raise AttributeConfigError(
                    f"{type(self).__name__} {self.name!r} has no attribute {name!r}"
                ) from None
            return None  # a required attribute not yet set

    def set_configuration(self, properties: Mapping[str, Any]) -> None:
        """Standard Configurator interface used by the deployment engine."""
        for key, value in properties.items():
            self.set_attribute(key, value)

    def copy_configuration(self, configured: "Component") -> None:
        """Take the values ``set_configuration`` checked on ``configured``,
        an instance of the same class (another replica of one subtask)."""
        if type(configured) is not type(self) or self._activated:
            raise AttributeConfigError(f"{self.name!r} cannot copy {configured.name!r}")
        self._attributes = configured._attributes.copy()

    def check_required_attributes(self) -> None:
        """Raise if any required attribute is still unset."""
        if not self._attributes.keys() >= self._REQUIRED:
            # Every optional attribute holds at least its default.
            missing = next(n for n in self.ATTRIBUTES if n not in self._attributes)
            raise AttributeConfigError(
                f"required attribute {missing!r} of {self.name!r} was never set"
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_install(self, container: "Container") -> None:
        """Hook: component placed into its container (ports may be wired)."""

    def on_activate(self) -> None:
        """Hook: deployment complete, the system is about to run."""

    def activate(self) -> None:
        if self.container is None:
            raise self._not_installed()
        self.check_required_attributes()
        self.on_activate()
        self._activated = True

    @property
    def activated(self) -> bool:
        return self._activated

    # ------------------------------------------------------------------
    # Component context (valid once installed): bound by Container.install.
    # ------------------------------------------------------------------
    node = _ContainerContext()  # name of the processor deployed on
    sim = _ContainerContext()
    processor = _ContainerContext()
    tracer = _ContainerContext()

    def _not_installed(self) -> ComponentError:
        return ComponentError(f"component {self.name!r} is not installed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.container.node if self.container else "uninstalled"
        return f"<{type(self).__name__} {self.name!r} on {where}>"
