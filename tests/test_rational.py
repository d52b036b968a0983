"""Tests for rational parsing: `parse_rational` reads a string by one ASCII
grammar, as `Fraction(str)` reads the strings of that grammar on every
interpreter, and rejects every other string; a decimal exponent outside
-999..999 is rejected before it is read. JSON numbers go through the same
builder."""

import json
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from briberysim import (
    Consensus,
    ContractConfig,
    GameParams,
    OracleReport,
    PowerDistribution,
    Protocol,
    SimConfig,
    advance_clock,
    catch_up_probability,
    contract_commit,
    contract_distribute,
    contract_init,
    verify_deposit_bound,
)
from briberysim.rational import decode_json, format_rational, parse_int, parse_rational

# digits, signs, the slash, the point, the exponent mark, underscores,
# whitespace, and decimal digits outside ASCII (Arabic-Indic, fullwidth)
ALPHABET = "0123456789-+/._eE \t" + "٠١٢٩" + "０１９"

# the grammar, written out here: a sign, then an integer ratio, or a decimal
# with at least one digit and an optional exponent; ASCII digits only
GRAMMAR = re.compile(
    r"[-+]?[0-9]+/[0-9]+"
    r"|[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?(?P<exponent>[0-9]+))?"
)


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
@example(".5")
@example("1.")
@example("1e999")
@example("1e1000")
@example("1e-0_999")
@example("1E١٠٠٠")
def test_parse_rational_reads_strings_as_fraction_does(text):
    match = GRAMMAR.fullmatch(text)
    if match is None:
        with pytest.raises(ValueError, match="not a rational string"):
            parse_rational(text)
        return
    if match["exponent"] is not None and int(match["exponent"]) > 999:
        # Fraction would build 10**exponent whole; the bound rejects it first
        with pytest.raises(ValueError, match="has a decimal exponent outside -999..999"):
            parse_rational(text)
        return
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="not a rational string"):
            parse_rational(text)
    else:
        parsed = parse_rational(text)
        assert parsed == expected and type(parsed) is Fraction


# strings whose reading by Fraction(str) differs across CPython 3.10-3.13,
# or which the grammar reads differently from it, with the one answer every
# interpreter gives: the value's canonical form, or None for "not a rational
# string"
DRIFT = [
    ("1_0", None),  # 3.11+ Fraction reads 10
    ("1e0_0_9_9_9", None),  # 3.11+ Fraction reads 10**999
    ("1/1_0", None),  # 3.11+ Fraction reads 1/10
    (" 1 / 2", None),  # 3.12+ Fraction reads 1/2
    ("1 /2", None),  # 3.12+ Fraction reads 1/2
    (" 1/2", None),  # every Fraction strips outer whitespace
    ("1/2\n", None),
    ("١/٢", None),  # every Fraction reads non-ASCII decimal digits
    ("１.５", None),
    ("+1/2", "1/2"),
    ("-0/7", "0"),
    ("007/020", "7/20"),
    (".5", "1/2"),
    ("-.5", "-1/2"),
    ("1.", "1"),
    ("0.5e-3", "1/2000"),
    ("1E+2", "100"),
    ("3/00", None),
    ("1/-2", None),
    (".", None),
    ("e5", None),
    ("1e", None),
    ("1.5/2", None),
    ("1e1000", None),
]


@pytest.mark.parametrize("text, expected", DRIFT, ids=[repr(text) for text, _ in DRIFT])
def test_rational_strings_read_the_same_on_every_interpreter(text, expected):
    if expected is None:
        with pytest.raises(ValueError):
            parse_rational(text)
    else:
        assert format_rational(parse_rational(text)) == expected


P3_POWERS = PowerDistribution(("2/5", "7/20", "1/4"))
P3_REWARDS = ((2,) * 3, (-1,) * 3, (5,) * 3, (-3,) * 3)

# the Python API's rational inputs: (field as its errors name it, the call with
# the value in that field, what the call returns of it)
API_FIELDS = [
    ("powers[0]", lambda v: PowerDistribution((v, "1/2")).powers[0]),
    ("threshold_t", lambda v: GameParams(P3_POWERS, v, *P3_REWARDS).threshold_t),
    ("reward_malicious[1]", lambda v: GameParams(
        P3_POWERS, "1/2", *P3_REWARDS[:2], (5, v, 5), P3_REWARDS[3]).reward_malicious[1]),
    ("sim config: threshold_t", lambda v: SimConfig(
        P3_POWERS, {0, 1}, Consensus.POS_SLASHING, 3, 10, 0, v).threshold_t),
    ("minion_share", lambda v: catch_up_probability(v, 1)),
    ("deposit", lambda v: verify_deposit_bound(GameParams(P3_POWERS, "1/2", *P3_REWARDS), v)),
]


@pytest.mark.parametrize("field, call", API_FIELDS, ids=[field for field, _ in API_FIELDS])
@pytest.mark.parametrize("text, expected", DRIFT, ids=[repr(text) for text, _ in DRIFT])
def test_api_strings_read_as_parse_rational_reads_them(field, call, text, expected):
    if expected is None:
        with pytest.raises(ValueError) as raised:
            parse_rational(text, field)
        with pytest.raises(ValueError) as api:
            call(text)
        assert str(api.value) == str(raised.value)
    else:
        assert call(text) == call(parse_rational(text))


# the contract's rational inputs, read as API_FIELDS' are: (field as its errors
# name it, the call with the value in that field, what the call returns of it)
P3_CONTRACT = ContractConfig(100, 9, "1/2", P3_POWERS)
CONTRACT_FIELDS = [
    ("magnate_deposit", lambda v: ContractConfig(100, v, "1/2", P3_POWERS).magnate_deposit),
    ("threshold_t", lambda v: ContractConfig(100, 9, v, P3_POWERS).threshold_t),
    ("deposit", lambda v: contract_commit(contract_init(P3_CONTRACT), 0, v).minions[0]),
]
EVERY_API_FIELD = API_FIELDS + CONTRACT_FIELDS
EVERY_API_FIELD_ID = [field for field, _ in API_FIELDS] + [f"contract {field}" for field, _ in CONTRACT_FIELDS]


@pytest.mark.parametrize("field, call", EVERY_API_FIELD, ids=EVERY_API_FIELD_ID)
@pytest.mark.parametrize("value", [0.5, Decimal("0.5"), True], ids=["float", "Decimal", "bool"])
def test_api_rejects_inexact_numbers_as_parse_rational_does(field, call, value):
    with pytest.raises(ValueError) as raised:
        parse_rational(value, field)
    with pytest.raises(ValueError) as api:
        call(value)
    assert str(api.value) == str(raised.value)
    expected = "a rational, got a boolean" if value is True else f"a rational string, got {type(value).__name__}"
    assert str(api.value) == f"{field}: expected {expected}"


# a deposit must be positive, so the contract is given DRIFT's positive values only
POSITIVE_DRIFT = [(text, expected) for text, expected in DRIFT if expected is None or Fraction(expected) > 0]


@pytest.mark.parametrize("field, call", CONTRACT_FIELDS, ids=[field for field, _ in CONTRACT_FIELDS])
@pytest.mark.parametrize("text, expected", POSITIVE_DRIFT, ids=[repr(text) for text, _ in POSITIVE_DRIFT])
def test_contract_strings_read_as_parse_rational_reads_them(field, call, text, expected):
    if expected is None:
        with pytest.raises(ValueError) as raised:
            parse_rational(text, field)
        with pytest.raises(ValueError) as api:
            call(text)
        assert str(api.value) == str(raised.value)
    else:
        made = call(text)
        assert format_rational(made) == expected and type(made) is Fraction


@pytest.mark.parametrize("field, call", CONTRACT_FIELDS, ids=[field for field, _ in CONTRACT_FIELDS])
def test_contract_reads_an_int_as_a_fraction(field, call):
    made = call(3)
    assert made == 3 and type(made) is Fraction


# the Python API's integer inputs: (field as its errors name it, the call with
# the value in that field)
P3_ORDERED = contract_commit(contract_commit(contract_init(P3_CONTRACT), 0, 9), 1, 9)
P3_ORACLE = OracleReport(True, {0: Protocol.MALICIOUS, 1: Protocol.MALICIOUS})
INT_FIELDS = [
    ("expiration_time", lambda v: ContractConfig(v, 9, "1/2", P3_POWERS)),
    ("node", lambda v: contract_commit(contract_init(P3_CONTRACT), v, 9)),
    ("node", lambda v: contract_distribute(P3_ORDERED, v, P3_ORACLE)),
    ("to", lambda v: advance_clock(contract_init(P3_CONTRACT), v)),
    ("sim config: confirmations", lambda v: SimConfig(P3_POWERS, {0, 1}, Consensus.POW_LONGEST_CHAIN, v, 10, 0)),
    ("sim config: horizon_slots", lambda v: SimConfig(P3_POWERS, {0, 1}, Consensus.POW_LONGEST_CHAIN, 3, v, 0)),
    ("sim config: rng_seed", lambda v: SimConfig(P3_POWERS, {0, 1}, Consensus.POW_LONGEST_CHAIN, 3, 10, v)),
]
INT_FIELD_IDS = ["expiration_time", "commit node", "distribute node", "to",
                 "confirmations", "horizon_slots", "rng_seed"]


@pytest.mark.parametrize("field, call", INT_FIELDS, ids=INT_FIELD_IDS)
@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_api_integers_read_as_parse_int_reads_them(field, call, value):
    with pytest.raises(ValueError) as raised:
        parse_int(value, field)
    with pytest.raises(ValueError) as api:
        call(value)
    assert str(api.value) == str(raised.value)


@pytest.mark.parametrize(
    "field, call",
    [
        ("powers", lambda: PowerDistribution("1")),
        ("powers", lambda: PowerDistribution("1/2")),
        ("reward_honest", lambda: GameParams(
            PowerDistribution(("1/2", "1/2")), "1/2", "22", (-1, -1), (5, 5), (-3, -3))),
    ],
    ids=["one-char-powers", "ratio-powers", "two-char-reward"],
)
def test_api_lists_read_as_arrays(field, call):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == f"{field}: expected an array of rational strings"


@given(st.fractions())
def test_canonical_strings_round_trip(value):
    assert parse_rational(format_rational(value)) == value


OUTSIDE_BOUND = "deposit: rational string %s has a decimal exponent outside -999..999"


class TestExponentBound:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("1e999", Fraction(10**999)),
            ("-1E-999", Fraction(-1, 10**999)),
            ("1e+0999", Fraction(10**999)),
            ("25e-0000001", Fraction(5, 2)),
            ("1e٠٩٩٩ ", None),  # outside the grammar: non-ASCII digits and a space
        ],
        ids=["e999", "e-999", "leading-zeros", "many-leading-zeros", "arabic-indic-digits"],
    )
    def test_exponents_within_bound_parse_exactly(self, text, value):
        if value is None:
            with pytest.raises(ValueError) as raised:
                parse_rational(text, "t")
            assert str(raised.value) == f"t: not a rational string: {text!r}"
        else:
            assert parse_rational(text, "t") == value

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1e1000", OUTSIDE_BOUND % "'1e1000'"),
            ("5E-1000", OUTSIDE_BOUND % "'5E-1000'"),
            # outside the grammar: underscores and non-ASCII digits
            ("1e1_000", "deposit: not a rational string: '1e1_000'"),
            ("1e١٠٠٠", "deposit: not a rational string: '1e١٠٠٠'"),
            ("1e" + "9" * 30, OUTSIDE_BOUND % ("'1e" + "9" * 18 + "...'")),
        ],
        ids=["e1000", "e-1000", "underscores", "arabic-indic-digits", "exponent-of-30-digits"],
    )
    def test_exponents_outside_bound_name_the_field(self, text, message):
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


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_json_numbers_read_by_their_decimal_text(x):
    # json.dumps writes a float as repr does: "-0.0", "1e+300", "5e-324"
    assert decode_json(json.dumps(x)) == Fraction(repr(x))


@pytest.mark.parametrize(
    "text, value",
    [
        ("-0.0", Fraction(0)),
        ("1E+2", Fraction(100)),
        ("1e-999", Fraction(1, 10**999)),
        ("123456789.000000001", Fraction(123456789000000001, 10**9)),
    ],
)
def test_json_number_texts_read_exactly(text, value):
    parsed = decode_json(text)
    assert parsed == value and type(parsed) is Fraction


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="int() reads strings of any length"
)
@pytest.mark.parametrize("point", [False, True], ids=["integer", "decimal"])
def test_json_number_past_int_digit_limit_reads_as_int_does(point):
    # a JSON integer and a JSON decimal with as many digits give int()'s own message
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ValueError) as limit:
        int(digits)
    with pytest.raises(ValueError) as raised:
        decode_json(digits[:1] + "." + digits[1:] if point else digits)
    assert str(raised.value) == f"invalid JSON: {limit.value}"
