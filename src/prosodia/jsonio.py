"""The one JSON codec: every config, checkpoint and stats file goes through here.

A file's keys and defaults are those of its dataclass. ``to_json`` writes
each field under its name; ``from_json`` reads them back and takes the
field's default for an absent key. It casts each value strictly by the
field's annotation and never coerces one JSON type to another: an int takes
a JSON integer (not a bool, not 1.0), a float a finite integer or number, a
str a string, and a tuple, list or array an array of such items. It lists
every key it cannot take, each by its dotted path, in one ``ValueError``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import types
import typing
from pathlib import Path

import numpy as np

from prosodia.errors import ValidationError

# Field metadata for a key a file must give although code may omit it.
REQUIRED = {"json_required": True}

_JSON_TYPES = {dict: "object", list: "array"}
_MAX = sys.float_info.max
_ABSENT = object()  # the value of a key a record needs and its object lacks


class _Bad(Exception):
    """Every problem under one value, as (path below the value, message) pairs."""


def one_of(names: dict) -> dict:
    """Field metadata for a string spelled as a key of ``names``, read as that key's value."""
    spelled = _leaf(f"one of {tuple(names)}", lambda v: type(v) is str and v in names, names.get)
    return {"json_cast": spelled}


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
    """An instance of dataclass ``cls`` from a decoded JSON object; unknown keys are ignored.

    Raises one ``ValueError`` listing each missing key, each value its field
    cannot take and each failed constructor check under its dotted path
    (``'schedule.total_iters'``, ``'pairs[1][0]'``). A record with a bad
    field is not constructed.
    """
    try:
        return _record(cls, data)
    except _Bad as bad:
        problems = [f"{path.lstrip('.')!r}: {message}" if path else message
                    for path, message in bad.args[0]]
        raise ValueError("\n  - ".join([f"malformed {cls.__name__}:", *problems])) from None


def _record(cls, data):
    if not isinstance(data, dict):
        raise _rejected("an object", data)
    kwargs = _each((name, cast, data.get(name, _ABSENT))
                   for name, cast, required in _schema(cls) if required or name in data)
    try:
        return cls(**kwargs)
    except ValidationError as err:
        raise _Bad([("", str(err))]) from None


def _each(items) -> dict:
    """Each ``(key, cast, value)`` item's key and cast value; raises every item's problems."""
    values, problems = {}, []
    for key, cast, value in items:
        try:
            if value is _ABSENT:
                raise _Bad([("", "missing required key")])
            values[key] = cast(value)
        except _Bad as bad:
            step = f"[{key}]" if isinstance(key, int) else f".{key}"
            problems += [(step + path, message) for path, message in bad.args[0]]
    if problems:
        raise _Bad(problems)
    return values


@functools.cache
def _schema(cls) -> tuple:
    """(name, cast, required) per init field, built once per class."""
    hints, missing = typing.get_type_hints(cls), dataclasses.MISSING
    return tuple(
        (f.name, f.metadata.get("json_cast") or _caster(hints[f.name]),
         f.metadata.get("json_required", False) or f.default is f.default_factory is missing)
        for f in dataclasses.fields(cls) if f.init
    )


def _caster(kind):
    """The cast of a decoded JSON value to annotation ``kind``; it raises ``_Bad``."""
    if dataclasses.is_dataclass(kind):
        return functools.partial(_record, kind)
    if kind in _LEAVES:
        return _LEAVES[kind]
    if kind is np.ndarray:
        return _items(functools.partial(np.array, dtype=np.float64), _LEAVES[float])
    if kind is tuple:
        return _INT_ARRAYS
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is typing.Union or origin is types.UnionType:  # X | None
        cast = _caster(args[0])
        return lambda value: None if value is None else cast(value)
    if origin is tuple and args[-1] is not Ellipsis:  # tuple[X, Y]
        return _items(tuple, tuple(map(_caster, args)))
    if origin in (tuple, list):  # tuple[X, ...], list[X]
        return _items(origin, _caster(args[0]))
    if origin is dict:  # dict[str, X]
        return functools.partial(_object, _caster(args[1]))
    raise TypeError(f"no JSON cast for annotation {kind!r}")


def _leaf(expected: str, takes, convert):
    def cast(value):
        if takes(value):
            return convert(value)
        raise _rejected(expected, value)

    return cast


# The cast of each leaf annotation: what an error says it takes, its test, its conversion.
# Each test takes only the JSON types it names: a bool is no integer, NaN no finite number.
_LEAVES = {
    int: _leaf("an integer", lambda v: type(v) is int, int),
    float: _leaf("a finite number", lambda v: type(v) in (int, float) and abs(v) <= _MAX, float),
    str: _leaf("a string", lambda v: type(v) is str, str),
    Path: _leaf("a path string", lambda v: type(v) is str, Path),
}


def _items(container, item):
    """An array cast into ``container``: each item by ``item``, or by position by a tuple."""
    fixed = isinstance(item, tuple)

    def cast(value):
        if not isinstance(value, list) or fixed and len(value) != len(item):
            shape = f"an array of {len(item)} items" if fixed else "an array"
            raise _rejected(shape, value)
        casts = item if fixed else itertools.repeat(item)
        return container([*_each(zip(itertools.count(), casts, value)).values()])

    return cast


# A bare ``tuple``: an array of integers or of integer arrays, as kernel sizes are.
_INT_ARRAY = _items(tuple, _LEAVES[int])
_INT_ARRAYS = _items(tuple, lambda v: (_INT_ARRAY if isinstance(v, list) else _LEAVES[int])(v))


def _object(item, value):
    if not isinstance(value, dict):
        raise _rejected("an object", value)
    return _each((key, item, v) for key, v in value.items())


def _rejected(expected: str, value) -> _Bad:
    """The problem of ``value`` not being ``expected``, named in JSON terms."""
    kind = _JSON_TYPES.get(type(value))
    got = f"an {kind}" if kind else json.dumps(value, default=repr)
    return _Bad([("", f"expected {expected}, got {got}")])


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

    Any malformed file, down to a value ``cls`` rejects, raises ``error``
    naming it and listing every bad key.
    """
    data = {**(defaults or {}), **read_json(path, error)}
    try:
        return from_json(cls, data)
    except ValueError as err:
        raise error(f"{path}: {err}") from err


def json_text(obj) -> str:
    """``obj`` as indented JSON text with sorted keys and a final newline."""
    return json.dumps(to_json(obj), indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(json_text(obj), encoding="utf-8")
