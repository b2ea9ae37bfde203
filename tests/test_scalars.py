"""Scalar formatting: exact rational strings of any length."""

import random
import sys
from fractions import Fraction as F

import pytest

from relfreq.core import ReliabilityReport
from relfreq.scalars import rational_str


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
