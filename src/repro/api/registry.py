"""Strategy combos by name.

Scenarios carry a combo **name**, and :func:`resolve_combo` turns it into
a :class:`~repro.core.strategies.StrategyCombo` at run time — which is
what lets a JSON scenario file select any strategy without touching
Python imports.  The names are the paper's 15 valid ``AC_IR_LB`` labels
plus three aliases (``default``, ``paper-best``, ``distributed``).

Unknown names raise :class:`~repro.errors.ConfigurationError` listing
what is available, so typos fail loudly instead of silently defaulting.
"""

from __future__ import annotations

from typing import Dict

from repro.core.strategies import StrategyCombo, valid_combinations
from repro.errors import ConfigurationError

#: Every name a scenario may give its combo: the 15 labels and the aliases.
_COMBOS: Dict[str, StrategyCombo] = {
    **{combo.label: combo for combo in valid_combinations()},
    "default": StrategyCombo.from_label("T_T_T"),
    "paper-best": StrategyCombo.from_label("J_J_J"),
    # The distributed-AC prototype supports exactly this configuration.
    "distributed": StrategyCombo.from_label("J_N_N"),
}


def resolve_combo(name: str) -> StrategyCombo:
    """The combo a name denotes: a label in any case, or an alias, with
    surrounding spaces ignored."""
    if not isinstance(name, str):
        raise ConfigurationError(
            f"strategy combo must be a name string, got {type(name).__name__}"
        )
    key = name.strip()
    combo = _COMBOS.get(key) or _COMBOS.get(key.upper())
    if combo is None:
        raise ConfigurationError(
            f"unknown strategy combo {name!r}; known names: "
            f"{', '.join(sorted(_COMBOS))}"
        )
    return combo
