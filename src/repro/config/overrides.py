"""Dotted ``--set key=value`` overrides over a spec document.

``repro <cmd> --set stack.channels=8 --set workload.queue_depth=32``
edits the raw (sparse) spec dict *before* parsing, so every override
still goes through the same validation as a checked-in file.  Values
parse as JSON when they can (numbers, booleans, ``null``, lists,
quoted strings) and fall back to bare strings, so
``--set stack.vendor=micron`` works without quoting gymnastics.
"""

from __future__ import annotations

import json

from repro.config.specs import SpecError


class OverrideError(SpecError):
    """A malformed --set expression (a usage error, like any bad spec)."""


def parse_override(expression: str) -> tuple:
    """``"a.b.c=value"`` -> ``(("a", "b", "c"), parsed_value)``."""
    if "=" not in expression:
        raise OverrideError(
            f"--set needs KEY=VALUE, got {expression!r}"
        )
    path, _, raw = expression.partition("=")
    path = path.strip()
    if not path:
        raise OverrideError(f"--set has an empty key: {expression!r}")
    keys = tuple(part.strip() for part in path.split("."))
    if any(not part for part in keys):
        raise OverrideError(f"--set has an empty path segment: {path!r}")
    raw = raw.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare string (vendor names, patterns, ...)
    return keys, value


def apply_overrides(document: dict, expressions) -> dict:
    """Apply each ``KEY=VALUE`` to ``document`` in order; returns it.

    Intermediate objects are created as needed (``--set
    stack.ftl.checkpoint_interval=48`` works on a spec with no ``ftl``
    section), but overriding *through* a non-object is an error.
    """
    for expression in expressions:
        keys, value = parse_override(expression)
        node = document
        for key in keys[:-1]:
            child = node.get(key)
            if child is None:
                child = node[key] = {}
            elif not isinstance(child, dict):
                raise OverrideError(
                    f"--set {expression!r}: {key!r} is not an object"
                )
            node = child
        node[keys[-1]] = value
    return document
