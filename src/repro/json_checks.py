"""Checks of JSON input, shared by every ``from_json`` in the package.

A JSON payload comes from outside the program, so a ``from_json`` checks
each field it reads before it uses it: a missing key or a value of the
wrong type must fail with the documented error, not a ``KeyError`` or
``TypeError`` from deep inside a constructor.

* :func:`reject_unknown` raises :class:`~repro.errors.ConfigurationError`
  for a key the format does not define.
* :func:`json_field` and :func:`json_list` raise ``ValueError``, the
  error the metrics snapshots' ``from_json`` document;
  :meth:`repro.api.RunResult.from_json` turns it into
  ``ConfigurationError``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping

from repro.errors import ConfigurationError


def reject_unknown(data: Dict[str, Any], allowed: Iterable[str], what: str) -> None:
    """Raise ConfigurationError if ``data`` holds a key not in ``allowed``."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown {what} field(s): {', '.join(sorted(unknown))}"
        )


def json_field(payload: Any, key: str, kinds: Any, what: str) -> Any:
    """``payload[key]``, checked to be one of ``kinds`` (a bool is never a
    number).  Raises ValueError when ``payload`` is not a JSON object,
    lacks ``key``, or holds another type there."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(payload).__name__}")
    if key not in payload:
        raise ValueError(f"{what} lacks {key!r}")
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{what} {key!r} may not be a {type(value).__name__}")
    return value


def json_list(payload: Any, key: str, kinds: Any, what: str) -> List[Any]:
    """``payload[key]``, checked to be a JSON list of ``kinds`` items."""
    values: List[Any] = json_field(payload, key, list, what)
    for value in values:
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{what} {key!r} may not hold a {type(value).__name__}")
    return values
