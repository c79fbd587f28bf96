"""The one JSON codec: every config, checkpoint and stats file goes through here.

A file's keys and defaults are those of its dataclass. ``to_json`` writes
each field under its name; ``from_json`` reads them back, casting each value
by the field's annotation, and takes the field's default for an absent key.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from pathlib import Path

import numpy as np

from prosodia.errors import ValidationError

# Field metadata for a key a file must give although code may omit it.
REQUIRED = {"json_required": True}

_JSON_TYPES = {dict: "object", list: "array"}


def to_json(obj):
    """The JSON value of ``obj``; a dataclass by its fields, never its ``__dict__``."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    return obj


def from_json(cls, data):
    """An instance of dataclass ``cls`` from a decoded JSON object.

    Raises ``KeyError`` naming a missing key, and ``TypeError`` or
    ``ValueError`` for a value its field's annotation cannot take; the
    constructor's own checks raise as they do. Unknown keys are ignored.
    """
    _expect(data, dict)
    kwargs = {}
    for name, cast, required in _schema(cls):
        if name in data:
            try:
                kwargs[name] = cast(data[name])
            except (OverflowError, RecursionError) as err:  # int(inf), float(10**400)
                raise ValueError(f"{name}: {err}") from err
        elif required:
            raise KeyError(name)
    return cls(**kwargs)


@functools.cache
def _schema(cls) -> tuple:
    """(name, cast, required) per init field, built once per class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            _caster(hints[f.name]),
            f.metadata.get("json_required", False)
            or (f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING),
        )
        for f in dataclasses.fields(cls)
        if f.init
    )


def _caster(kind):
    """The function that casts a decoded JSON value to annotation ``kind``."""
    if dataclasses.is_dataclass(kind):
        return functools.partial(from_json, kind)
    if kind in (float, int, str):
        return kind
    if kind is np.ndarray:
        return functools.partial(np.asarray, dtype=np.float64)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is typing.Union or origin is types.UnionType:  # X | None
        (inner,) = (a for a in args if a is not type(None))
        cast = _caster(inner)
        return lambda value: None if value is None else cast(value)
    if kind is tuple or origin is tuple:
        item = _caster(args[0]) if args else _tuple_if_list  # tuple[X, ...] or tuple
        return lambda value: tuple(map(item, value))
    if origin is dict:  # dict[str, X]
        item = _caster(args[1])
        return lambda value: {k: item(v) for k, v in _expect(value, dict).items()}
    return lambda value: value


def _tuple_if_list(value):
    """Nested arrays become nested tuples, as a discriminator's kernel sizes are."""
    return tuple(value) if isinstance(value, list) else value


def _expect(value, kind: type):
    if not isinstance(value, kind):
        raise TypeError(f"expected a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def read_json(path, error: type[Exception], expect: type = dict):
    """The decoded JSON file at ``path``, whose top level must be an ``expect``.

    Bytes that are not UTF-8 JSON, nesting too deep for the decoder, an
    integer too long to convert and a top level of another type all raise
    ``error`` naming the file.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"{path}: invalid JSON ({err})") from err
    if not isinstance(data, expect):
        raise error(f"{path}: expected a JSON {_JSON_TYPES[expect]}, got {type(data).__name__}")
    return data


def read_record(path, cls, error: type[Exception], defaults: dict | None = None):
    """A ``cls`` from the JSON object at ``path``, over ``defaults`` for keys it leaves out.

    Any malformed file, down to a value ``cls`` rejects, raises ``error`` naming it.
    """
    data = {**(defaults or {}), **read_json(path, error)}
    try:
        return from_json(cls, data)
    except KeyError as err:
        raise error(f"{path}: missing required key {err.args[0]!r}") from err
    except (TypeError, ValueError, ValidationError) as err:
        raise error(f"{path}: malformed {cls.__name__} ({err})") from err


def json_text(obj) -> str:
    """``obj`` as indented JSON text with sorted keys and a final newline."""
    return json.dumps(to_json(obj), indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(json_text(obj), encoding="utf-8")
