"""Exact rational parsing/formatting for JSON payloads.

All quantities that enter strict threshold comparisons (powers, the
threshold itself, rewards, deposits) are kept as `fractions.Fraction` and
serialized as strings like "7/20" so that no precision is lost on a
round trip. Every JSON input, scenario file and event log alike, is decoded
by `decode_json`, so a JSON number means its decimal value everywhere.
Rational strings and JSON numbers are read by one ASCII grammar, `_RATIONAL`,
the same on every interpreter, and built with `int()` and `Fraction(int, int)`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction


def _reject_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return doc


# a rational string, the same on every interpreter: a sign, then an integer
# ratio ("-7/20") or a decimal with at least one digit ("0.25", ".5", "1.")
# and an optional exponent ("5e-1"); ASCII digits only, no spaces or
# underscores. A JSON number with a fraction or an exponent is such a decimal.
_RATIONAL = re.compile(r"([-+]?(?=\.?[0-9])[0-9]*)(?:/([0-9]+)|(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?)")

# a decimal exponent has at most this many digits: its value is built with
# the whole integer 10**exponent, so 1e1000000 alone would take a third of a
# second and each further digit about thirty times longer
_MAX_EXPONENT_DIGITS = 3


def shorten(text: str) -> str:
    """`text` as an error message shows it: its first 20 characters, then `...`."""
    return text if len(text) <= 20 else text[:20] + "..."


def _read(text: str, field: str | None = None) -> Fraction:
    """`text` read by `_RATIONAL` and built from integers: a JSON number's raw
    text (`field` None) or the rational string given for `field`."""
    match = _RATIONAL.fullmatch(text)
    if match is not None:
        whole, denominator, decimals, exponent = match.groups()
        if exponent is not None and len(exponent.lstrip("+-").lstrip("0")) > _MAX_EXPONENT_DIGITS:
            shown = shorten(text)
            what = f"number {shown}" if field is None else f"{field}: rational string {shown!r}"
            bound = 10**_MAX_EXPONENT_DIGITS - 1
            raise ValueError(f"{what} has a decimal exponent outside -{bound}..{bound}")
        try:
            if denominator is not None:
                return Fraction(int(whole), int(denominator))
            decimals = decimals or ""
            digits, shift = int(whole + decimals), int(exponent or 0) - len(decimals)
            return Fraction(digits * 10**shift) if shift >= 0 else Fraction(digits, 10**-shift)
        except (ValueError, ZeroDivisionError):  # past int()'s digit limit, or a zero denominator
            if field is None:
                raise
    raise ValueError(f"{field}: not a rational string: {shorten(text)!r}")


# built once: `json.loads(text, **kwargs)` would build a decoder per call;
# parse_float receives the raw text, so 0.55 becomes exactly 11/20
_DECODER = json.JSONDecoder(parse_float=_read, object_pairs_hook=_reject_repeated_keys)


def decode_json(data: str | bytes) -> object:
    """Decode one JSON document (UTF-8 if bytes): a JSON number like 0.55 is an
    exact Fraction, a repeated key or an exponent outside -999..999 an error;
    every error starts `invalid JSON`."""
    try:
        return _DECODER.decode(data if isinstance(data, str) else data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON at line {exc.lineno}: {exc.msg} (column {exc.colno})") from None
    except (ValueError, RecursionError) as exc:
        # not UTF-8, a repeated key, a huge exponent, or nested too deeply
        raise ValueError(f"invalid JSON: {exc}") from None


def parse_rational(value: object, field: str = "value") -> Fraction:
    """Parse a rational from a JSON-decoded value or a Python API argument.

    Accepts rational strings ("7/20", "3", "-0.25", ".5", "5e-1"), ints, and
    Fractions. Floats, Decimals and bools are rejected, from JSON and from the
    Python API alike: a JSON number like 0.55 keeps its decimal meaning only
    when decoded by `decode_json`. This is where input becomes a
    Fraction: a string is read by `_RATIONAL`, and a zero denominator, a
    decimal exponent outside -999..999 or int()'s digit limit rejects it.
    """
    if isinstance(value, str):
        return _read(value, field)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"{field}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    raise ValueError(f"{field}: expected a rational string, got {type(value).__name__}")


def parse_int(value: object, field: str, minimum: int | None = None) -> int:
    """Parse a JSON integer, optionally bounded below; booleans are rejected,
    and so is a number written with a fraction or an exponent, even 1e2."""
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, Fraction):
            raise ValueError(f"{field}: expected an integer, got {value}, not written as an integer")
        raise ValueError(f"{field}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{field}: must be >= {minimum}, got {value}")
    return value


def parse_bool(value: object, field: str) -> bool:
    """Parse a JSON boolean; strings such as "false" and numbers are rejected."""
    if not isinstance(value, bool):
        raise ValueError(f"{field}: expected a boolean, got {value!r}")
    return value


def check_fields(doc: object, required: tuple, optional: tuple, context: str) -> None:
    """Check that `doc` is an object with every `required` key and no key
    outside `required` and `optional`, naming the first offending key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{context}: expected an object")
    fields = required + optional
    unknown = [key for key in doc if key not in fields]
    if unknown:
        raise ValueError(f"{context}: unknown field {unknown[0]!r}; fields: {list(fields)}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{context}: missing field '{key}'")


def format_rational(value: Fraction) -> str:
    """Canonical string form: "3", "2/5", "-63/20"."""
    return str(Fraction(value))


def format_rational_list(values) -> list[str]:
    return [format_rational(v) for v in values]


def parse_rational_list(values: object, field: str) -> tuple[Fraction, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{field}: expected an array of rational strings")
    return tuple(parse_rational(v, f"{field}[{i}]") for i, v in enumerate(values))
