"""JSON wire codec for the tagged dataclasses: set generators, multiplier families, test functions.

Each concept keeps one `Registry`.  A class joins it under its wire name with
one coercion per field; the registry turns instances into plain dicts and
back.  An unknown tag raises ValueError, a missing field KeyError, and extra
keys are ignored.
"""

from __future__ import annotations

import math
from typing import Callable


def number(value) -> float:
    """A finite JSON number as a float; a bool, a string, NaN or an infinity is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
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


class Registry:
    """Wire names and field coercions of one family of frozen dataclasses."""

    def __init__(self, tag: str, noun: str):
        self.tag, self.noun = tag, noun
        self._by_name: dict[str, tuple[type, dict[str, Callable]]] = {}
        self._by_class: dict[type, str] = {}

    def register(self, name: str, **fields: Callable):
        """Class decorator: `name` on the wire, `fields` maps attribute -> coercion."""

        def decorate(cls):
            self._by_name[name] = (cls, fields)
            self._by_class[cls] = name
            return cls

        return decorate

    def to_json(self, obj) -> dict:
        name = self._by_class.get(type(obj))
        if name is None:
            raise ValueError(f"{self.tag} {type(obj).__name__} has no wire format")
        return {self.tag: name, **{f: self._plain(getattr(obj, f)) for f in self._by_name[name][1]}}

    def _plain(self, value):
        if isinstance(value, tuple):
            return [self._plain(v) for v in value]
        return self.to_json(value) if type(value) in self._by_class else value

    def from_json(self, payload: dict):
        spec = dict(payload)
        try:
            cls, fields = self._by_name[spec.get(self.tag)]
        except (KeyError, TypeError):
            raise ValueError(f"unknown {self.noun} {spec.get(self.tag)!r}") from None
        return cls(**{f: coerce(spec[f]) for f, coerce in fields.items()})
