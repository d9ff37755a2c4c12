"""Lossless scenario serialization: dict <-> dataclasses <-> TOML/JSON.

The on-disk document is a plain nested mapping carrying
``schema = "repro.scenario/1"``.  :func:`to_dict` emits the *minimal*
document — fields equal to their schema default are omitted — and
:func:`from_dict` restores the exact same :class:`ScenarioSpec`, so
``from_dict(to_dict(spec)) == spec`` for every valid spec (the
round-trip property test pins this for TOML and JSON).  Both directions
walk the spec dataclasses, so each field's name, type and default is
declared once, in :mod:`repro.scenario.spec`.

TOML reading uses :mod:`tomllib` (Python 3.11+); on older interpreters
TOML entry points raise a clear :class:`ScenarioError` while the JSON
path keeps working.  TOML *writing* needs no third-party package — the
document shape is restricted enough (tables, arrays of tables, scalar
arrays) that a small emitter below covers it.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, Field, fields, is_dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    get_args,
    get_origin,
    get_type_hints,
)

try:  # Python 3.11+
    import tomllib
except ImportError:  # pragma: no cover - exercised only on Python < 3.11
    tomllib = None  # type: ignore[assignment]

from .spec import ScenarioError, ScenarioSpec


# -- dict -> spec -------------------------------------------------------------

#: What a present value of each scalar field type must be (error text).
_EXPECTED = {
    str: "a string",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    Tuple[str, ...]: "a list of strings",
    Tuple[int, ...]: "a list of integers",
    Tuple[Tuple[int, int], ...]: "a list of [start_tick, end_tick] pairs",
}


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _is_list(value: Any) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, str)


def _spec_class(hint: Any) -> Optional[type]:
    """The spec class a table-valued field holds (``None`` for a scalar)."""
    for candidate in (hint, *get_args(hint)):
        if is_dataclass(candidate):
            return candidate
    return None


def _coerce(value: Any, hint: Any) -> Any:
    """``value`` as the scalar type ``hint``, or ``TypeError``.

    Integers widen to ``float`` (``OverflowError`` past the float range)
    and lists become tuples; a bool is never a number.
    """
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if not _is_list(value):
            raise TypeError(hint)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(args) != len(value):
            raise TypeError(hint)
        return tuple(_coerce(item, arg) for item, arg in zip(value, args))
    if isinstance(value, bool) and hint is not bool:
        raise TypeError(hint)
    if hint is float and isinstance(value, int):
        return float(value)
    if not isinstance(value, hint):
        raise TypeError(hint)
    return value


def _read_field(
    f: Field, hint: Any, data: Mapping[str, Any], path: str, errors: List[str]
) -> Any:
    """One field's value; problems go to ``errors`` (the value is then moot).

    An absent key takes the dataclass default.  A required table that is
    absent is an error; a required string reads as ``""`` and is left to
    ``validate()``.  ``null`` reads as absent for a table or an
    ``Optional`` field and is a type error anywhere else.
    """
    value = data.get(f.name)
    optional = type(None) in get_args(hint)
    if optional:
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    spec_cls = _spec_class(hint)
    is_table = spec_cls is not None and get_origin(hint) is not tuple
    if f.name not in data or (value is None and (optional or is_table)):
        if f.default is not MISSING:
            return f.default
        if f.default_factory is not MISSING:  # type: ignore[misc]
            return f.default_factory()  # type: ignore[misc]
        if spec_cls is not None:
            errors.append(f"{path}: missing required table")
        return hint()
    if spec_cls is None:
        try:
            return _coerce(value, hint)
        except TypeError:
            errors.append(f"{path}: expected {_EXPECTED[hint]}, got {value!r}")
        except OverflowError:
            errors.append(f"{path}: integer is too large for a float")
        return None
    if is_table:
        if isinstance(value, Mapping):
            return _read_table(spec_cls, value, path, errors)
        errors.append(f"{path}: expected a table, got {value!r}")
        return None
    if not _is_list(value) or not all(isinstance(item, Mapping) for item in value):
        errors.append(f"{path}: expected an array of tables, got {value!r}")
        return None
    return tuple(
        _read_table(spec_cls, item, f"{path}[{i}]", errors)
        for i, item in enumerate(value)
    )


def _read_table(
    cls: type, data: Mapping[str, Any], path: str, errors: List[str]
) -> Any:
    """Read one table into the spec class ``cls``, collecting errors.

    Table-valued fields are read before scalars, each group in
    declaration order, and unknown keys are reported last, so a nested
    table's problems come before those of the table that holds it.
    """
    hints = get_type_hints(cls)
    ordered = sorted(fields(cls), key=lambda f: _spec_class(hints[f.name]) is None)
    values = {
        f.name: _read_field(f, hints[f.name], data, _at(path, f.name), errors)
        for f in ordered
    }
    for key in sorted(set(data) - set(values)):
        errors.append(f"{_at(path, key)}: unknown key")
    return cls(**values)


def from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Build a validated :class:`ScenarioSpec` from a plain document.

    Unknown keys, wrong types and semantic violations are all collected
    and raised together as one :class:`ScenarioError` so a bad file
    reports every problem in a single pass.
    """
    if not isinstance(data, Mapping):
        raise ScenarioError([f": expected a table, got {type(data).__name__}"])
    errors: List[str] = []
    spec = _read_table(ScenarioSpec, data, "", errors)
    if errors:
        raise ScenarioError(errors)
    return spec.validate()


# -- spec -> dict -------------------------------------------------------------


def _value_to_plain(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return _dataclass_to_plain(value)
    if isinstance(value, tuple):
        return [_value_to_plain(v) for v in value]
    return value


def _dataclass_to_plain(obj: Any) -> Dict[str, Any]:
    """Minimal dict: fields equal to their schema default are omitted."""
    result: Dict[str, Any] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.default is not MISSING and value == f.default:
            continue
        if (
            f.default_factory is not MISSING  # type: ignore[misc]
            and value == f.default_factory()  # type: ignore[misc]
        ):
            continue
        if value is None:
            continue
        result[f.name] = _value_to_plain(value)
    return result


def to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """Serialize a spec to its minimal plain document.

    ``schema`` and ``name`` are always present (they identify the
    document); everything else is omitted when it equals the default.
    """
    body = _dataclass_to_plain(spec)
    body.pop("schema", None)
    body.pop("name", None)
    doc: Dict[str, Any] = {"schema": spec.schema, "name": spec.name}
    doc.update(body)
    return doc


# -- JSON ---------------------------------------------------------------------


def dumps_json(spec: ScenarioSpec) -> str:
    return json.dumps(to_dict(spec), indent=2) + "\n"


def loads_json(text: str) -> ScenarioSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ScenarioError(["top-level JSON value must be an object"])
    return from_dict(data)


# -- TOML ---------------------------------------------------------------------


def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr() is the shortest exact round-trip form and is valid TOML
        # for every finite float (validation forbids inf/nan).
        text = repr(value)
        return text
    if isinstance(value, str):
        return _toml_string(value)
    if isinstance(value, list):
        return "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {value!r} to TOML")


_TOML_ESCAPES = {
    '"': '\\"',
    "\\": "\\\\",
    "\b": "\\b",
    "\t": "\\t",
    "\n": "\\n",
    "\f": "\\f",
    "\r": "\\r",
}


def _toml_string(value: str) -> str:
    """A TOML basic string for ``value``.

    Not ``json.dumps``: JSON escapes astral-plane characters as UTF-16
    surrogate pairs, which TOML forbids.  TOML basic strings take any
    character verbatim except the quote, the backslash and control
    characters (U+0000–U+001F, U+007F), which use the shared escapes.
    """
    parts = ['"']
    for char in value:
        escape = _TOML_ESCAPES.get(char)
        if escape is not None:
            parts.append(escape)
        elif ord(char) < 0x20 or ord(char) == 0x7F:
            parts.append(f"\\u{ord(char):04X}")
        else:
            parts.append(char)
    parts.append('"')
    return "".join(parts)


def _is_table_array(value: Any) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(isinstance(v, dict) for v in value)
    )


def _emit_table(prefix: str, table: Mapping[str, Any], lines: List[str]) -> None:
    for key, value in table.items():
        if isinstance(value, dict) or _is_table_array(value):
            continue
        lines.append(f"{key} = {_toml_scalar(value)}")
    for key, value in table.items():
        full = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            lines.append("")
            lines.append(f"[{full}]")
            _emit_table(full, value, lines)
        elif _is_table_array(value):
            for element in value:
                lines.append("")
                lines.append(f"[[{full}]]")
                _emit_table(full, element, lines)


def dumps_toml(spec: ScenarioSpec) -> str:
    """Emit the spec as TOML (parseable back by :func:`loads_toml`)."""
    lines: List[str] = []
    _emit_table("", to_dict(spec), lines)
    return "\n".join(lines) + "\n"


def parse_toml(text: str) -> Dict[str, Any]:
    """Parse TOML text into a plain document (sweep table included)."""
    if tomllib is None:
        raise ScenarioError(
            ["TOML scenarios need Python 3.11+ (tomllib); use JSON instead"]
        )
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError([f"invalid TOML: {exc}"]) from exc


def loads_toml(text: str) -> ScenarioSpec:
    return from_dict(parse_toml(text))


# -- files --------------------------------------------------------------------


def parse_scenario_file(path: str) -> Dict[str, Any]:
    """Read one scenario document (TOML or JSON by extension).

    The returned document may still carry a ``[sweep]`` table — use
    :func:`repro.scenario.sweep.expand_document` to resolve it, or
    :func:`load_scenario` when a single spec is expected.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError([f"cannot read scenario file {path}: {exc}"]) from exc
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError([f"{path}: invalid JSON: {exc}"]) from exc
        if not isinstance(data, dict):
            raise ScenarioError([f"{path}: top-level JSON value must be an object"])
        return data
    return parse_toml(text)


def load_scenario(path: str) -> ScenarioSpec:
    """Load and validate a single (sweep-free) scenario file."""
    data = dict(parse_scenario_file(path))
    if "sweep" in data:
        raise ScenarioError(
            [
                f"{path} defines a [sweep]; expand it with "
                "repro.scenario.sweep.expand_document (or run it through "
                "'repro run')"
            ]
        )
    return from_dict(data)
