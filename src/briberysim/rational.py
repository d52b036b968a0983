"""Exact rational parsing/formatting for JSON payloads.

All quantities that enter strict threshold comparisons (powers, the
threshold itself, rewards, deposits) are kept as `fractions.Fraction` and
serialized as strings like "7/20" so that no precision is lost on a
round trip.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(value: object, field: str = "value") -> Fraction:
    """Parse a rational from a JSON-decoded value.

    Accepts rational strings ("7/20", "3", "-0.25"), ints, and Fractions.
    Floats are rejected: a JSON number like 0.55 must be parsed with
    `parse_float=Fraction` at decode time to keep its decimal meaning.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"{field}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{field}: not a rational string: {value!r}") from exc
    raise ValueError(f"{field}: expected a rational string, got {type(value).__name__}")


def parse_int(value: object, field: str, minimum: int | None = None) -> int:
    """Parse a JSON integer, optionally bounded below; booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
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
