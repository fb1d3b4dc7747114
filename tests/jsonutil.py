"""JSON mutation helpers shared by the input-boundary tests."""

from __future__ import annotations


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


def json_kind(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


#: Replacement values; a mutation uses one of another JSON kind.
WRONG_VALUES = (None, "x", 7, 2.5, True, [], {}, [1], {"a": 1})
