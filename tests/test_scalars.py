"""Scalars: parsing config strings, and exact rational strings of any length."""

import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfreq.core import ReliabilityReport
from relfreq.scalars import check_mode, parse_scalar, rational_str


def digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def reference_str(x: F) -> str:
    """str() of numerator and denominator, the digit limit lifted meanwhile."""
    limit = digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("sign", [1, -1])
def test_5000_digit_terms_format_exactly(sign):
    rng = random.Random(5000)
    x = sign * F(rng.randrange(10**4999, 10**5000), rng.randrange(10**4999, 10**5000) | 1)
    before = digit_limit()
    assert rational_str(x) == reference_str(x)
    assert rational_str(x.numerator * 10**5000) == reference_str(F(x.numerator * 10**5000))
    assert digit_limit() == before


def test_report_with_long_rationals_serialises():
    big = F(3**12000, 2**40000 + 1)
    report = ReliabilityReport(big, 1 - big, big / 7, F(1, 7), "exact")
    out = report.as_dict()
    assert out["availability"]["rational"] == reference_str(big)
    assert out["failure_rate"]["rational"] == "1/7"


def _part(*choices):
    return st.sampled_from(choices)


_ASCII = st.text(st.sampled_from("0123456789"), max_size=4)
_DIGITS = st.one_of(_ASCII, _ASCII, _part("007", "1_0", "٣", "²", "d"))
# Whitespace, sign, digits, then a decimal part or a denominator, an
# exponent and whitespace; each part may be empty or malformed, and a
# choice listed twice is drawn twice as often.  "٣" (Arabic-Indic 3) is a
# digit to Fraction, "²" (superscript 2) to str.isdigit only.  Exponents
# stay small: Fraction("1e999999") is slow.
SCALAR_TEXTS = st.one_of(
    st.tuples(
        _part("", "", " ", "\t", "\n "), _part("", "", "", "+", "-", "--"), _DIGITS,
        st.tuples(_part("", ".", ".", "/", "/", " / ", "./"), _DIGITS).map("".join),
        _part("", "", "", "e", "E-", "e+", "e3", "e-2", "E10", "e_1"), _part("", "", " ", "\t"),
    ).map("".join),
    st.text(st.sampled_from(" +-./_0123456789٣²"), max_size=10),
)


@settings(max_examples=1000, deadline=None)
@given(SCALAR_TEXTS)
def test_parse_scalar_matches_fraction(text):
    """The value of Fraction(text), or its error message after "cannot parse scalar"."""
    try:
        expected = F(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ValueError) as info:
            parse_scalar(text)
        assert str(info.value) == f"cannot parse scalar {text!r}: {exc}"
    else:
        assert parse_scalar(text) == expected


@pytest.fixture
def digit_limit_4300():
    before = digit_limit()
    if before is None:
        pytest.skip("this interpreter has no int-to-str digit limit")
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("text", [
    "7" * 5000,
    "0." + "7" * 5000,
    "7" * 5000 + ".5",
    "1/" + "7" * 5000,
], ids=["integer", "fraction-part", "whole-part", "denominator"])
def test_5000_digit_scalar_raises_the_fraction_digit_limit_message(text, digit_limit_4300):
    with pytest.raises(ValueError) as expected:
        F(text)
    assert "Exceeds the limit (4300 digits)" in str(expected.value)
    with pytest.raises(ValueError) as info:
        parse_scalar(text)
    assert str(info.value) == f"cannot parse scalar {text!r}: {expected.value}"


def test_long_whole_and_fraction_parts_parse_each_under_the_limit(digit_limit_4300):
    """Fraction reads the two sides of the point as separate ints, so 3000 + 3000
    digits parse although their 6000 digits together exceed the limit."""
    text = "1" * 3000 + "." + "2" * 3000
    assert parse_scalar(text) == F(text)


def test_an_unknown_mode_is_rejected():
    assert check_mode("approx") == "approx"
    with pytest.raises(ValueError, match="unknown mode 'fast'"):
        check_mode("fast")
