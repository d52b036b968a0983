"""Tests for rational parsing: `parse_rational` reads a string as `Fraction(str)`
does, and a decimal exponent outside -999..999 is rejected before it is read."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from briberysim.rational import format_rational, parse_rational

# digits, signs, the slash, the point, the exponent mark, underscores,
# whitespace, and decimal digits outside ASCII (Arabic-Indic, fullwidth)
ALPHABET = "0123456789-+/._eE \t" + "٠١٢٩" + "０１９"

# the exponent of a string Fraction(str) accepts, as its grammar writes it
EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


@settings(max_examples=1500)
@given(st.text(alphabet=ALPHABET, max_size=12))
@example("3/00")
@example("-0/7")
@example("007/020")
@example("+1/2")
@example(" 1/2")
@example("1/-2")
@example("١/٢")
@example("0/0")
@example("-5")
@example("1e999")
@example("1e1000")
@example("1e-0_999")
@example("1E١٠٠٠")
def test_parse_rational_reads_strings_as_fraction_does(text):
    exponent = EXPONENT.search(text)
    if exponent is not None and int(exponent[1].replace("_", "")) > 999:
        # Fraction would build 10**exponent whole; the bound rejects it first
        with pytest.raises(ValueError):
            parse_rational(text)
        return
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_rational(text)
    else:
        parsed = parse_rational(text)
        assert parsed == expected and type(parsed) is Fraction


@given(st.fractions())
def test_canonical_strings_round_trip(value):
    assert parse_rational(format_rational(value)) == value


class TestExponentBound:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("1e999", Fraction(10**999)),
            ("-1E-999", Fraction(-1, 10**999)),
            ("1e+0999", Fraction(10**999)),
            ("25e-0000001", Fraction(5, 2)),
            ("1e٠٩٩٩ ", Fraction(10**999)),
        ],
        ids=["e999", "e-999", "leading-zeros", "many-leading-zeros", "arabic-indic-digits"],
    )
    def test_exponents_within_bound_parse_exactly(self, text, value):
        assert parse_rational(text, "t") == value

    @pytest.mark.parametrize(
        "text, shown",
        [
            ("1e1000", "'1e1000'"),
            ("5E-1000", "'5E-1000'"),
            ("1e1_000", "'1e1_000'"),
            ("1e١٠٠٠", "'1e١٠٠٠'"),
            ("1e" + "9" * 30, "'1e" + "9" * 18 + "...'"),
        ],
        ids=["e1000", "e-1000", "underscores", "arabic-indic-digits", "exponent-of-30-digits"],
    )
    def test_exponents_outside_bound_name_the_field(self, text, shown):
        message = f"deposit: rational string {shown} has a decimal exponent outside -999..999"
        with pytest.raises(ValueError) as raised:
            parse_rational(text, "deposit")
        assert str(raised.value) == message


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="int() reads strings of any length"
)
def test_canonical_string_past_int_digit_limit_names_the_field():
    text = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ValueError, match=r"^deposit: not a rational string: '1111"):
        parse_rational(text, "deposit")
