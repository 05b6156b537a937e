"""JSON wire codec for the config dataclasses: set generators, multiplier families, test functions, configs.

A field is declared once, on the dataclass: `a: float = wire(number)` reads key
`a` through `number`, and `n: int = wire(integer, "grid.n", default=1024)` reads
the dotted path `grid.n` (key `n` of the object `grid`), or 1024 if absent.
`from_wire(cls, payload)` and `to_wire(obj)` convert; a `Registry` adds a tag naming the
class (`{"family": "band_bump"}`) and reads only a JSON object.  An unknown tag raises
ValueError, a missing field KeyError, and extra keys are ignored.  A coercion error names
its field, nested fields outermost first (`members: a: expected a number, got '1.0'`).
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, field, fields, is_dataclass
from typing import Callable


def number(value) -> float:
    """A finite JSON number as a float; a bool, a string, NaN, an infinity or an int too big for a float is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def integer(value) -> int:
    """An integral JSON number as an int (1e6 reads as 1000000); a fraction or anything `number` rejects is an error."""
    if not number(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def tuple_of(coerce: Callable) -> Callable:
    """Coercion of a JSON list into a tuple of coerced items; anything else is a TypeError."""

    def convert(items):
        if not isinstance(items, list):
            raise TypeError(f"expected a list, got {type(items).__name__}")
        return tuple(coerce(item) for item in items)

    return convert


def optional(coerce: Callable) -> Callable:
    """Coercion that keeps None (a missing or null field) and coerces anything else."""
    return lambda value: None if value is None else coerce(value)


def object_field(payload: dict, key: str) -> dict:
    """payload[key] as a JSON object: {} when absent or null, a TypeError for any other type."""
    value = payload.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise TypeError(f"{key} must be an object, got {type(value).__name__}")
    return value


def read_field(payload: dict, path: str, coerce: Callable, *default):
    """`coerce` of the value at a dotted `path` of nested objects, or of `default` if given and the value is
    absent; a missing required field raises KeyError, and a coercion error is re-raised with `path: ` in front."""
    *parents, key = path.split(".")
    for parent in parents:
        payload = object_field(payload, parent)
    try:
        return coerce(payload.get(key, *default) if default else payload[key])
    except (TypeError, ValueError, OverflowError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def wire(coerce: Callable, path: str | None = None, **field_kwargs):
    """A dataclass field read through `coerce` from the dotted `path` of a payload, by default the field's name."""
    return field(metadata={"wire": (coerce, path)}, **field_kwargs)


def _wire_fields(cls) -> list:
    """(field, dotted path, coercion) of every wire field of a dataclass."""
    return [(f, f.metadata["wire"][1] or f.name, f.metadata["wire"][0]) for f in fields(cls) if "wire" in f.metadata]


def from_wire(cls, payload: dict):
    """An instance of `cls` read from a payload by its wire fields; an absent field reads as its default."""
    kwargs = {}
    for f, path, coerce in _wire_fields(cls):
        default = () if f.default is MISSING else (_plain(f.default),)
        kwargs[f.name] = read_field(payload, path, coerce, *default)
    return cls(**kwargs)


def to_wire(obj) -> dict:
    """The wire fields of a dataclass instance as a plain dict, nested along their dotted paths."""
    out: dict = {}
    for f, path, _ in _wire_fields(type(obj)):
        *parents, key = path.split(".")
        node = out
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = _plain(getattr(obj, f.name))
    return out


def _plain(value):
    """The JSON form of a field value: tuples as lists, and dataclasses with wire fields by them (and their tag)."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if type(value) in _WIRE_NAMES:
        return _WIRE_NAMES[type(value)][0].to_json(value)
    return to_wire(value) if is_dataclass(value) and _wire_fields(type(value)) else value


class Registry:
    """Wire names of one family of frozen dataclasses, kept under one tag."""

    def __init__(self, tag: str, noun: str):
        self.tag, self.noun = tag, noun
        self._by_name: dict[str, type] = {}

    def register(self, name: str):
        """Class decorator: `name` on the wire."""

        def decorate(cls):
            self._by_name[name] = cls
            _WIRE_NAMES[cls] = (self, name)
            return cls

        return decorate

    def to_json(self, obj) -> dict:
        registry, name = _WIRE_NAMES.get(type(obj), (None, None))
        if registry is not self:
            raise ValueError(f"{self.tag} {type(obj).__name__} has no wire format")
        return {self.tag: name, **to_wire(obj)}

    def from_json(self, payload: dict):
        if not isinstance(payload, dict):  # a list of pairs or a string is not an object
            raise TypeError(f"expected an object, got {type(payload).__name__}")
        try:
            cls = self._by_name[payload.get(self.tag)]
        except (KeyError, TypeError):
            raise ValueError(f"unknown {self.noun} {payload.get(self.tag)!r}") from None
        return from_wire(cls, payload)


# the registry and wire name of every registered class, so that a field may hold a class of another registry
_WIRE_NAMES: dict[type, tuple[Registry, str]] = {}
