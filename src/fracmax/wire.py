"""JSON wire codec for the tagged dataclasses: set generators, multiplier families, test functions.

Each concept keeps one `Registry`.  A class joins it under its wire name with
one coercion per field; the registry turns instances into plain dicts and
back.  An unknown tag raises ValueError, a missing field KeyError, and extra
keys are ignored.
"""

from __future__ import annotations

from typing import Callable


def tuple_of(coerce: Callable) -> Callable:
    """Coercion of a JSON list into a tuple of coerced items; anything else is a TypeError."""

    def convert(items):
        if not isinstance(items, list):
            raise TypeError(f"expected a list, got {type(items).__name__}")
        return tuple(coerce(item) for item in items)

    return convert


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
