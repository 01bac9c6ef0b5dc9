"""Spec documents on disk: JSON and TOML, one loader.

JSON is the canonical interchange format (it is what artifacts embed).
TOML is accepted for hand-written specs — ``tomllib`` ships with
Python 3.11+; on 3.10 loading a ``.toml`` spec raises a clear
:class:`~repro.config.specs.SpecError` instead of an ImportError.

The writer side (:func:`to_toml`) is a minimal emitter covering the
spec document shape — nested tables, arrays of tables, and scalar
values.  ``None`` values are omitted (TOML has no null); the reader's
defaulting restores them, so a JSON → TOML → JSON round trip resolves
to the identical spec and therefore the identical ``spec_hash``.
"""

from __future__ import annotations

import json
from typing import Union

from repro.config.specs import ExperimentSpec, SpecError


def load_spec_dict(path: str) -> dict:
    """Read a raw spec document (sparse dict) from ``path``."""
    toml = path.endswith(".toml")
    if toml:
        try:
            import tomllib
        except ImportError:  # Python 3.10
            raise SpecError(
                f"{path}: TOML specs need Python 3.11+ (tomllib); "
                f"convert to JSON with `repro spec show`"
            ) from None
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        return tomllib.loads(text) if toml else json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON: {exc}") from None
    except ValueError as exc:  # tomllib.TOMLDecodeError
        raise SpecError(f"{path}: invalid TOML: {exc}") from None


def load_spec(path: str) -> ExperimentSpec:
    """Load, default, and validate one spec document."""
    try:
        return ExperimentSpec.from_dict(load_spec_dict(path))
    except SpecError as exc:
        message = str(exc)
        if not message.startswith(path):
            raise SpecError(f"{path}: {message}") from None
        raise


def dump_spec(spec: ExperimentSpec, destination, resolved: bool = False) -> None:
    """Write ``spec`` as JSON to a path or file object."""
    rendered = spec.to_json(resolved=resolved) + "\n"
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            handle.write(rendered)
    else:
        destination.write(rendered)


# ----------------------------------------------------------------------
# Minimal TOML emitter (spec-document shape only)
# ----------------------------------------------------------------------

_Scalar = Union[str, int, float, bool]


def _toml_scalar(value: _Scalar) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # TOML basic strings are JSON-compatible
    raise SpecError(f"cannot render {value!r} as TOML")


def _is_scalar(value) -> bool:
    return isinstance(value, (str, int, float, bool))


def _emit_table(lines: list, prefix: str, table: dict) -> None:
    scalars = {}
    subtables = {}
    table_arrays = {}
    for key, value in table.items():
        if value is None:
            continue  # TOML has no null; the reader's defaulting restores it
        if isinstance(value, dict):
            subtables[key] = value
        elif isinstance(value, (list, tuple)) and value and all(
                isinstance(v, dict) for v in value):
            table_arrays[key] = value
        elif isinstance(value, (list, tuple)):
            if not all(_is_scalar(v) for v in value):
                raise SpecError(f"cannot render {key}={value!r} as TOML")
            scalars[key] = "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
        elif _is_scalar(value):
            scalars[key] = _toml_scalar(value)
        else:
            raise SpecError(f"cannot render {key}={value!r} as TOML")
    if prefix and (scalars or not (subtables or table_arrays)):
        lines.append(f"[{prefix}]")
    for key, rendered in scalars.items():
        lines.append(f"{key} = {rendered}")
    if scalars:
        lines.append("")
    for key, sub in subtables.items():
        _emit_table(lines, f"{prefix}.{key}" if prefix else key, sub)
    for key, entries in table_arrays.items():
        name = f"{prefix}.{key}" if prefix else key
        for entry in entries:
            lines.append(f"[[{name}]]")
            for k, v in entry.items():
                if v is None:
                    continue
                lines.append(f"{k} = {_toml_scalar(v)}")
            lines.append("")


def to_toml(spec: ExperimentSpec, resolved: bool = False) -> str:
    """Render ``spec`` as a TOML document (see module docstring)."""
    lines: list = []
    _emit_table(lines, "", spec.to_dict(resolved=resolved))
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"
