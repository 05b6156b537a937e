"""JSON wire codec for the tagged dataclasses: set generators, multiplier families, test functions.

Each concept keeps one `Registry`.  A class joins it under its wire name with
one coercion per field; the registry turns instances into plain dicts and
back.  A field's wire path may be dotted (`grid.n` is key `n` of the object
`grid`, read into attribute `n`), and an absent field with a dataclass default
reads as that default.  An unknown tag raises ValueError, a missing field
KeyError, and extra keys are ignored.  A coercion error names its field,
nested fields outermost first (`members: a: expected a number, got '1.0'`).
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, fields
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


def _plain(value):
    """The JSON form of a field value: tuples as lists, and registered classes and sets through their codecs."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if type(value) in _WIRE_NAMES:
        return _WIRE_NAMES[type(value)][0].to_json(value)
    return value.to_json() if hasattr(value, "to_json") else value


class Registry:
    """Wire names and field coercions of one family of frozen dataclasses."""

    def __init__(self, tag: str, noun: str):
        self.tag, self.noun = tag, noun
        self._by_name: dict[str, tuple[type, dict[str, Callable]]] = {}

    def register(self, name: str, **fields: Callable):
        """Class decorator: `name` on the wire, `fields` maps wire path -> coercion."""

        def decorate(cls):
            self._by_name[name] = (cls, fields)
            _WIRE_NAMES[cls] = (self, name)
            return cls

        return decorate

    def to_json(self, obj) -> dict:
        registry, name = _WIRE_NAMES.get(type(obj), (None, None))
        if registry is not self:
            raise ValueError(f"{self.tag} {type(obj).__name__} has no wire format")
        out = {self.tag: name}
        for path in self._by_name[name][1]:
            *parents, key = path.split(".")
            node = out
            for parent in parents:
                node = node.setdefault(parent, {})
            node[key] = _plain(getattr(obj, key))
        return out

    def from_json(self, payload: dict):
        spec = dict(payload)
        try:
            cls, coercions = self._by_name[spec.get(self.tag)]
        except (KeyError, TypeError):
            raise ValueError(f"unknown {self.noun} {spec.get(self.tag)!r}") from None
        defaults = {f.name: [_plain(f.default)] for f in fields(cls) if f.default is not MISSING}
        attrs = {path: path.rsplit(".", 1)[-1] for path in coercions}
        return cls(**{attrs[p]: read_field(spec, p, c, *defaults.get(attrs[p], [])) for p, c in coercions.items()})


# the registry and wire name of every registered class, so that a field may hold a class of another registry
_WIRE_NAMES: dict[type, tuple[Registry, str]] = {}
