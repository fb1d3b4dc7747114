"""The package's JSON codec, and checks of JSON input.

:func:`encode` and :func:`decode` are the one codec of the
:mod:`repro.api` boundary.  Both follow a type annotation:

* ``bool``, ``int``, ``float`` and ``str`` are themselves.  A bool is
  never a number, an int takes no float, and no number is NaN or
  infinite;
* an :class:`enum.Enum` is its value;
* ``Optional[X]`` is ``null`` or an ``X``;
* ``Tuple[X, ...]`` and ``List[X]`` are a list, and ``Dict[str, X]`` an
  object; so is a tuple of ``(name, value)`` pairs,
  ``Tuple[Tuple[str, X], ...]``;
* a class is an object of its constructor's parameters, by name and
  annotation (a dataclass's ``init`` fields), and is rebuilt through its
  constructor, so ``__post_init__`` stays the one place values are
  checked.  A parameter the class names in ``JSON_OMIT_DEFAULT`` is left
  out while it holds its default;
* a ``Union`` of classes, or an abstract class standing for its
  subclasses, names each member by its ``JSON_TAG`` under ``"type"``.  A
  parameter the class names in ``JSON_TAG_FROM`` carries no tag: its
  member is the one tagged with the value of the sibling key given there;
* a class with ``JSON_LEAF`` set keeps its own ``to_json``/``from_json``.

:func:`decode` raises :class:`~repro.errors.ConfigurationError` for a
missing or unknown key, a wrong type, or any error the constructor
raises, naming the JSON path: ``$.disturbances[1].factor``.

:func:`json_field` and :func:`json_list` raise ``ValueError``: the
metrics snapshots' ``from_json`` read their own format with them.
"""

from __future__ import annotations

import enum
import functools
import inspect
import json
import sys
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.errors import ConfigurationError, ReproError

_EMPTY = inspect.Parameter.empty
_SCALARS = {bool: "a bool", int: "an int", float: "a number", str: "a string"}


@functools.lru_cache(maxsize=None)
def _parameters(cls: type) -> Tuple[Tuple[str, Any, Any], ...]:
    """``(name, annotation, default)`` of each constructor parameter."""
    hints = get_type_hints(cls.__init__)
    return tuple(
        (name, hints[name], p.default)
        for name, p in inspect.signature(cls).parameters.items()
    )


def _members(tp: Any) -> Dict[str, type]:
    """Tag -> class of a tagged union: the classes of a ``Union``, or the
    subclasses of an abstract class, that carry a ``JSON_TAG``."""
    classes = get_args(tp) if get_origin(tp) is Union else tp.__subclasses__()
    return {vars(c)["JSON_TAG"]: c for c in classes if "JSON_TAG" in vars(c)}


def _pairs(item: Any) -> bool:
    """Whether a ``Tuple[item, ...]`` holds ``(name, value)`` pairs."""
    args = get_args(item)
    return get_origin(item) is tuple and len(args) == 2 and args[0] is str


def encode(value: Any, tp: Any) -> Any:
    """The JSON form of ``value``, a ``tp``."""
    origin = get_origin(tp)
    if value is None or tp in _SCALARS:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if origin is Union:
        members = [a for a in get_args(tp) if a is not type(None)]
        if len(members) == 1:
            return encode(value, members[0])
        return _encode_tagged(value, tp)
    if origin in (tuple, list):
        item = get_args(tp)[0]
        if _pairs(item):
            return {name: encode(v, get_args(item)[1]) for name, v in value}
        return [encode(v, item) for v in value]
    if origin is dict:
        return {k: encode(v, get_args(tp)[1]) for k, v in value.items()}
    if inspect.isabstract(tp):
        return _encode_tagged(value, tp)
    if getattr(tp, "JSON_LEAF", False):
        return value.to_json()
    return _encode_object(value)


def _encode_tagged(value: Any, tp: Any) -> Dict[str, Any]:
    members = _members(tp)
    tag = vars(type(value)).get("JSON_TAG")
    if members.get(tag) is not type(value):
        raise ConfigurationError(
            f"{type(value).__name__} has no JSON representation; tagged "
            f"types: {', '.join(repr(t) for t in members)}"
        )
    return {"type": tag, **_encode_object(value)}


def _encode_object(value: Any) -> Dict[str, Any]:
    cls = type(value)
    omit = getattr(cls, "JSON_OMIT_DEFAULT", ())
    tag_from = getattr(cls, "JSON_TAG_FROM", {})
    data: Dict[str, Any] = {}
    for name, tp, default in _parameters(cls):
        field = getattr(value, name)
        if name in omit and field == default:
            continue
        data[name] = encode(field, type(field) if name in tag_from else tp)
    return data


def decode(tp: Any, data: Any, path: str = "$") -> Any:
    """The ``tp`` whose JSON form is ``data``; ``path`` names ``data``
    in messages.  Raises ConfigurationError on malformed ``data``."""
    origin = get_origin(tp)
    if origin is Union:
        members = [a for a in get_args(tp) if a is not type(None)]
        if data is None and len(members) < len(get_args(tp)):
            return None
        if len(members) == 1:
            return decode(members[0], data, path)
        return _decode_tagged(_members(tp), data, path)
    if origin in (tuple, list):
        item = get_args(tp)[0]
        if _pairs(item):
            return origin(decode(Dict[str, get_args(item)[1]], data, path).items())
        return origin(
            decode(item, v, f"{path}[{i}]")
            for i, v in enumerate(_typed(data, list, "a list", path))
        )
    if origin is dict:
        return {
            k: decode(get_args(tp)[1], v, f"{path}.{k}")
            for k, v in _typed(data, dict, "an object", path).items()
        }
    if tp in _SCALARS:
        # bool is an int subclass: only a bool field takes a bool.
        kinds = (int, float) if tp is float else tp
        if isinstance(data, bool) is not (tp is bool) or not isinstance(data, kinds):
            raise ConfigurationError(
                f"{path}: expected {_SCALARS[tp]}, got {type(data).__name__}"
            )
        # Exact for an int too: NaN, +-inf and an int past the float
        # range all fail.
        if tp is float and not -sys.float_info.max <= data <= sys.float_info.max:
            raise ConfigurationError(f"{path}: non-finite number {str(data)[:24]}")
        return data
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        values = [m.value for m in tp]
        if data not in values:
            raise ConfigurationError(
                f"{path}: {data!r} is not a {tp.__name__}; expected one of "
                f"{', '.join(repr(v) for v in values)}"
            )
        return tp(data)
    if inspect.isabstract(tp):
        return _decode_tagged(_members(tp), data, path)
    if getattr(tp, "JSON_LEAF", False):
        try:
            json.dumps(data, allow_nan=False)  # a leaf takes no NaN either
            return tp.from_json(data)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
    return _decode_object(tp, data, path)


def _typed(data: Any, kinds: Any, what: str, path: str) -> Any:
    if not isinstance(data, kinds):
        raise ConfigurationError(
            f"{path}: expected {what}, got {type(data).__name__}"
        )
    return data


def _decode_tagged(members: Dict[str, type], data: Any, path: str) -> Any:
    _typed(data, dict, "an object", path)
    tag = data.get("type")
    if not isinstance(tag, str) or tag not in members:
        problem = f"unknown tag {tag!r}" if "type" in data else "missing tag"
        raise ConfigurationError(
            f"{path}.type: {problem}; expected one of "
            f"{', '.join(repr(t) for t in members)}"
        )
    fields = {k: v for k, v in data.items() if k != "type"}
    return _decode_object(members[tag], fields, path)


def _decode_object(cls: type, data: Any, path: str) -> Any:
    _typed(data, dict, "an object", path)
    params = _parameters(cls)
    unknown = sorted(set(data) - {name for name, _tp, _default in params})
    if unknown:
        raise ConfigurationError(
            f"{path}.{unknown[0]}: unknown key of {cls.__name__}"
        )
    tag_from = getattr(cls, "JSON_TAG_FROM", {})
    kwargs: Dict[str, Any] = {}
    for name, tp, default in params:
        where = f"{path}.{name}"
        if name not in data:
            if default is _EMPTY:
                raise ConfigurationError(f"{where}: missing key of {cls.__name__}")
            continue
        if name in tag_from and data[name] is not None:
            tag = data.get(tag_from[name])
            tp = _members(tp).get(tag) if isinstance(tag, str) else None
            if tp is None:
                raise ConfigurationError(
                    f"{where}: no {name} for {tag_from[name]} {tag!r}"
                )
        kwargs[name] = decode(tp, data[name], where)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, KeyError, ReproError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


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
