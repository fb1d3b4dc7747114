"""JSON mutation helpers shared by the input-boundary tests."""

from __future__ import annotations

import inspect
from typing import get_args, get_type_hints

from hypothesis import strategies as st


def json_paths(node, prefix=()):
    """The key/index path of every value in a JSON document, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths.extend(json_paths(value, prefix + (key,)))
    return paths


#: Replacement values; a mutation uses one of another JSON type.
WRONG_VALUES = (None, "x", 7, 2.5, True, [], {}, [1], {"a": 1})


def mutate(doc, data, numbers=(), path=None):
    """Drop or replace one value of the JSON document ``doc`` in place, as
    Hypothesis ``data`` draws it (the one at ``path`` if given); return
    ``(path, dropped, new value)``.

    Only a key of an object is dropped.  A replacement is of another JSON
    type, or one of ``numbers`` for a number.  An int may become 2.5, but
    a float never becomes an int: a float field takes one.
    """
    if path is None:
        path = data.draw(st.sampled_from(json_paths(doc)))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    key = path[-1]
    if isinstance(holder, dict) and data.draw(st.booleans()):
        del holder[key]
        return path, True, None
    kind = type(holder[key])
    same = {kind, int} if kind is float else {kind}
    choices = [v for v in WRONG_VALUES if type(v) not in same]
    if kind in (int, float):
        choices += list(numbers)
    holder[key] = data.draw(st.sampled_from(choices))
    return path, False, holder[key]


def may_parse(value, path, dropped, new):
    """Whether a mutation of ``value``'s JSON form may still parse: the
    key at ``path`` was dropped and has a default (every key of a mapping
    has), or its value became null and its parameter is ``Optional``.

    ``value`` is the decoded document; ``path`` follows its attributes,
    mapping keys and list indices.  A tag (``"type"``) is no parameter.
    """
    for key in path[:-1]:
        value = value[key] if isinstance(value, (dict, tuple)) else getattr(value, key)
    key = path[-1]
    if isinstance(value, (dict, tuple)):  # a mapping, (name, value) pairs, a list
        return dropped
    param = inspect.signature(type(value)).parameters.get(key)
    if param is None:
        return False
    if dropped:
        return param.default is not param.empty
    hint = get_type_hints(type(value).__init__)[key]
    return new is None and type(None) in get_args(hint)
