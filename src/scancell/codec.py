"""One JSON codec for the toolkit's records.

A record is a frozen dataclass that inherits `JsonRecord`. `to_json_dict`
writes its fields in declaration order: an enum as its value, a `Fraction`
as a float, a tuple as a list, a nested record as an object and anything
else as it is. `from_json_dict` inverts it and guards every JSON input: a
non-object, an unknown key, a missing key without a default or a value of
the wrong JSON type raises `ConfigError`. `bool` takes only true/false,
`int` only JSON integers, `float` any JSON number (kept as given), an enum
only its values and a `Fraction` (money) what `economics.as_money` takes.
Range checks stay in each record's `__post_init__`. A field's JSON key is
its name unless its metadata names another under "json"; records with
another documented layout override the two methods on top of these.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import reprlib
import typing
from fractions import Fraction

from .errors import ConfigError, ScancellError


class JsonRecord:
    """Mixin that gives a frozen dataclass its JSON encoding and decoding."""

    def to_json_dict(self) -> dict:
        fields = _plan(type(self))[0].items()
        return {key: encode(getattr(self, name)) for key, (name, encode, _) in fields}

    @classmethod
    def from_json_dict(cls, data):
        fields, required = _plan(cls)
        if not isinstance(data, dict):
            raise ConfigError(f"{cls.__name__} must be a JSON object")
        unknown = sorted(data.keys() - fields.keys())
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
        missing = sorted(required - data.keys())
        if missing:
            raise ConfigError(f"missing {cls.__name__} keys: {', '.join(missing)}")
        kwargs = {}
        for key, value in data.items():
            name, _, decode = fields[key]
            try:
                kwargs[name] = decode(value)
            except ScancellError:
                raise
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ConfigError(f"{cls.__name__}.{key}: {exc}") from None
        return cls(**kwargs)


@functools.cache
def _plan(cls) -> tuple[dict, frozenset]:
    """JSON key -> (field name, encode, decode) in declaration order, and
    the required keys; built once per class from its type hints."""
    hints = typing.get_type_hints(cls)
    fields, required = {}, set()
    for f in dataclasses.fields(cls):
        key = f.metadata.get("json", f.name)
        fields[key] = (f.name, *_codec(hints[f.name]))
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            required.add(key)
    return fields, frozenset(required)


def _codec(hint) -> tuple:
    """(encode, decode) for values of one field type."""
    args = typing.get_args(hint)
    if type(None) in args:  # `T | None`
        (inner,) = (arg for arg in args if arg is not type(None))
        encode, decode = _codec(inner)
        return (
            lambda value: None if value is None else encode(value),
            lambda value: None if value is None else decode(value),
        )
    if typing.get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            encode, decode = _codec(args[0])
            return (
                lambda value: [encode(item) for item in value],
                lambda value: tuple(decode(item) for item in _list(value)),
            )
        codecs = [_codec(arg) for arg in args]

        def decode_row(value) -> tuple:
            if len(_list(value)) != len(codecs):
                raise TypeError(f"expected {len(codecs)} items, got {reprlib.repr(value)}")
            return tuple(decode(item) for (_, decode), item in zip(codecs, value))

        return lambda value: [encode(item) for (encode, _), item in zip(codecs, value)], decode_row
    if issubclass(hint, JsonRecord):
        return hint.to_json_dict, hint.from_json_dict
    if issubclass(hint, enum.Enum):
        return lambda value: value.value, hint
    if hint is Fraction:
        from .economics import as_money  # every Fraction field holds money

        return float, as_money
    return _as_is, _PRIMITIVES[hint]


def _as_is(value):
    return value


def _list(value) -> list:
    if type(value) is not list:
        raise TypeError(f"expected a list, got {reprlib.repr(value)}")
    return value


def _exact(kind: type, description: str):
    def decode(value):
        if type(value) is not kind:
            raise TypeError(f"expected {description}, got {reprlib.repr(value)}")
        return value

    return decode


def _number(value):
    if type(value) is int:
        float(value)  # an integer beyond the float range raises OverflowError
    elif type(value) is not float:
        raise TypeError(f"expected a number, got {reprlib.repr(value)}")
    return value


_PRIMITIVES = {
    bool: _exact(bool, "true or false"),
    int: _exact(int, "an integer"),
    float: _number,
    str: _exact(str, "a string"),
}
